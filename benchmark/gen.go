package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// This file is the benchmark's document generator and its oracle. A
// document is a seeded record model (items, persons, open auctions,
// bidders) that is written out as XML text directly; every expected
// answer is computed from the records, never from an engine of this
// repository, so a wrong answer from the servers cannot agree with the
// check by construction.

// leaf is one text-only element of the document: its position in
// document order (elements are numbered as they are written) and its
// string-value.
type leaf struct {
	pos int
	val string
}

type item struct {
	id                                string
	region                            int
	name, payment, quantity, location leaf
	qty                               int
	hasShipping                       bool
}

type person struct {
	id       string
	name     leaf
	hasEmail bool
	email    leaf
}

type bidder struct {
	personref, increase leaf
	person              int // index into doc.persons
}

type auction struct {
	id               string
	bidders          []bidder
	current, itemref leaf
	cur              int
}

// doc is one generated document: the XML the servers get and the
// records the oracle answers from.
type doc struct {
	name     string
	xml      string
	items    []item
	persons  []person
	auctions []auction
}

var (
	regionNames = []string{"africa", "asia", "europe"}
	payments    = []string{"cash", "creditcard", "check"}
	locations   = []string{"Kenya", "Japan", "France", "Peru", "Canada", "Norway"}
)

// xmlWriter writes elements without any whitespace between them (so
// string-values are exactly the text written) and numbers each element
// in document order.
type xmlWriter struct {
	b   strings.Builder
	pos int
}

func (w *xmlWriter) open(name string, attrs ...string) {
	w.pos++
	w.b.WriteByte('<')
	w.b.WriteString(name)
	for i := 0; i+1 < len(attrs); i += 2 {
		fmt.Fprintf(&w.b, ` %s="%s"`, attrs[i], attrs[i+1])
	}
	w.b.WriteByte('>')
}

func (w *xmlWriter) close(name string) {
	w.b.WriteString("</")
	w.b.WriteString(name)
	w.b.WriteByte('>')
}

// text writes a text-only element and returns it as a leaf. Values are
// generated without markup characters, so no escaping is needed.
func (w *xmlWriter) text(name, val string) leaf {
	w.open(name)
	l := leaf{pos: w.pos, val: val}
	w.b.WriteString(val)
	w.close(name)
	return l
}

// balanced returns n values from [0, k), each as often as the others
// (to within one), in an order drawn from r.
func balanced(r *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// genDoc builds the document with the given number of items
// (about 20 nodes per item). The same (seed, items) gives the same
// document. What a query costs depends on how many elements there are
// and how many of them a predicate keeps, so those are the same for
// every seed: quantities, payments, locations, shipping, e-mail
// addresses and bidders per auction are dealt evenly and only their
// order, like every name, price and reference, is drawn from the seed.
//
// A side effect that matters: a document of six items or more holds
// every literal the pool compares with. The XPatterns evaluator answers
// [path = 'literal'] as if the predicate were absent when no node of
// the document has that string-value (see README.md, "Engine bug found
// by the oracle"), and a benchmark's workloads are chosen so that no
// operation fails.
func genDoc(name string, seed int64, items int) *doc {
	r := rand.New(rand.NewSource(seed))
	d := &doc{name: name}
	people := max(4, items/2)
	auctions := max(2, items/2)
	qtys, pays, locs := balanced(r, items, 5), balanced(r, items, len(payments)), balanced(r, items, len(locations))
	ships, emails, bidders := balanced(r, items, 3), balanced(r, people, 2), balanced(r, auctions, 5)
	w := &xmlWriter{}
	w.open("site")

	w.open("regions")
	perRegion := (items + len(regionNames) - 1) / len(regionNames)
	n := 0
	for ri, region := range regionNames {
		w.open(region)
		for k := 0; k < perRegion && n < items; k++ {
			it := item{id: "item" + strconv.Itoa(n), region: ri, qty: 1 + qtys[n]}
			w.open("item", "id", it.id)
			it.name = w.text("name", fmt.Sprintf("Item %d lot %d", n, r.Intn(1000)))
			it.payment = w.text("payment", payments[pays[n]])
			it.quantity = w.text("quantity", strconv.Itoa(it.qty))
			it.location = w.text("location", locations[locs[n]])
			if ships[n] == 0 {
				it.hasShipping = true
				w.text("shipping", "worldwide")
			}
			w.close("item")
			d.items = append(d.items, it)
			n++
		}
		w.close(region)
	}
	w.close("regions")

	w.open("people")
	for i := 0; i < people; i++ {
		p := person{id: "person" + strconv.Itoa(i)}
		w.open("person", "id", p.id)
		p.name = w.text("name", "Person "+strconv.Itoa(i))
		if emails[i] == 0 {
			p.hasEmail = true
			p.email = w.text("emailaddress", fmt.Sprintf("p%d@example.org", i))
		}
		w.close("person")
		d.persons = append(d.persons, p)
	}
	w.close("people")

	w.open("open_auctions")
	for i := 0; i < auctions; i++ {
		a := auction{id: "auction" + strconv.Itoa(i), cur: 10 + r.Intn(60)}
		w.open("open_auction", "id", a.id)
		for j := 0; j < bidders[i]; j++ {
			var b bidder
			w.open("bidder")
			b.person = r.Intn(people)
			b.personref = w.text("personref", d.persons[b.person].id)
			inc := 1 + r.Intn(20)
			a.cur += inc
			b.increase = w.text("increase", strconv.Itoa(inc))
			w.close("bidder")
			a.bidders = append(a.bidders, b)
		}
		a.current = w.text("current", strconv.Itoa(a.cur))
		a.itemref = w.text("itemref", d.items[r.Intn(len(d.items))].id)
		w.close("open_auction")
		d.auctions = append(d.auctions, a)
	}
	w.close("open_auctions")

	w.close("site")
	d.xml = w.b.String()
	return d
}

// answer is what the oracle expects of a response: the value fields of
// the wire format that do not depend on which engine ran. values holds
// the string-values of the first maxCheckedNodes selected nodes.
type answer struct {
	kind    string // "node-set", "number" or "boolean"
	count   int
	number  float64
	boolean bool
	str     string
	values  []string
}

// maxCheckedNodes is how many leading node values of a node-set answer
// are compared.
const maxCheckedNodes = 10

// nodeSet builds the answer for a set of selected leaves: sorted into
// document order with duplicates removed, as XPath node-sets are.
func nodeSet(leaves []leaf) answer {
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].pos < leaves[j].pos })
	a := answer{kind: "node-set"}
	last := -1
	for _, l := range leaves {
		if l.pos == last {
			continue
		}
		last = l.pos
		if a.count == 0 {
			a.str = l.val
		}
		if a.count < maxCheckedNodes {
			a.values = append(a.values, l.val)
		}
		a.count++
	}
	return a
}

// number builds the answer for an XPath number. Every number the pool
// produces is an integer, whose XPath string form is its decimal form.
func number(n int) answer {
	return answer{kind: "number", number: float64(n), str: strconv.Itoa(n)}
}

func boolean(b bool) answer {
	return answer{kind: "boolean", boolean: b, str: strconv.FormatBool(b)}
}

// selectItems returns get(item) for every item that keep accepts.
func (d *doc) selectItems(keep func(*item) bool, get func(*item) leaf) []leaf {
	var out []leaf
	for i := range d.items {
		if keep(&d.items[i]) {
			out = append(out, get(&d.items[i]))
		}
	}
	return out
}

func (d *doc) selectAuctions(keep func(*auction) bool, get func(*auction) leaf) []leaf {
	var out []leaf
	for i := range d.auctions {
		if keep(&d.auctions[i]) {
			out = append(out, get(&d.auctions[i]))
		}
	}
	return out
}

func (d *doc) selectPersons(keep func(*person) bool, get func(*person) leaf) []leaf {
	var out []leaf
	for i := range d.persons {
		if keep(&d.persons[i]) {
			out = append(out, get(&d.persons[i]))
		}
	}
	return out
}

func anyItem(*item) bool       { return true }
func anyAuction(*auction) bool { return true }
func itemName(it *item) leaf   { return it.name }
func itemQty(it *item) leaf    { return it.quantity }
func current(a *auction) leaf  { return a.current }
func itemref(a *auction) leaf  { return a.itemref }
func personName(p *person) leaf {
	return p.name
}

// template is one query of the pool: its text, the fragment class it
// was written for and its expected answer on a document.
type template struct {
	class  string // "core", "xpatterns", "wadler" or "full"
	text   string
	expect func(d *doc) answer
}

// pool is the 24-template query pool, six per fragment class. The
// order is fixed (it is the Zipf rank order of the hot workloads, so
// the traffic mix does not change with the seed) and interleaves the
// classes so every class has a template among the most frequent.
var pool = interleave(
	[]template{ // Core XPath: paths whose predicates are boolean combinations of paths
		{"core", "/site/regions/*/item/name", func(d *doc) answer {
			return nodeSet(d.selectItems(anyItem, itemName))
		}},
		{"core", "//item[shipping]/name", func(d *doc) answer {
			return nodeSet(d.selectItems(func(it *item) bool { return it.hasShipping }, itemName))
		}},
		{"core", "//open_auction[bidder]/current", func(d *doc) answer {
			return nodeSet(d.selectAuctions(func(a *auction) bool { return len(a.bidders) > 0 }, current))
		}},
		{"core", "//person[not(emailaddress)]/name", func(d *doc) answer {
			return nodeSet(d.selectPersons(func(p *person) bool { return !p.hasEmail }, personName))
		}},
		{"core", "//personref/ancestor::open_auction/itemref", func(d *doc) answer {
			return nodeSet(d.selectAuctions(func(a *auction) bool { return len(a.bidders) > 0 }, itemref))
		}},
		{"core", "//open_auction/current | //open_auction/itemref", func(d *doc) answer {
			return nodeSet(append(d.selectAuctions(anyAuction, current), d.selectAuctions(anyAuction, itemref)...))
		}},
	},
	[]template{ // XPatterns: adds path = constant and id()
		{"xpatterns", "//item[payment='cash']/name", func(d *doc) answer {
			return nodeSet(d.selectItems(func(it *item) bool { return it.payment.val == "cash" }, itemName))
		}},
		{"xpatterns", "id('person1')/name", func(d *doc) answer {
			return nodeSet(d.selectPersons(func(p *person) bool { return p.id == "person1" }, personName))
		}},
		{"xpatterns", "id(//bidder/personref)/name", func(d *doc) answer {
			referenced := map[int]bool{}
			for _, a := range d.auctions {
				for _, b := range a.bidders {
					referenced[b.person] = true
				}
			}
			var out []leaf
			for i, p := range d.persons {
				if referenced[i] {
					out = append(out, p.name)
				}
			}
			return nodeSet(out)
		}},
		{"xpatterns", "//item[location='Kenya' or location='Japan']/quantity", func(d *doc) answer {
			return nodeSet(d.selectItems(func(it *item) bool {
				return it.location.val == "Kenya" || it.location.val == "Japan"
			}, itemQty))
		}},
		{"xpatterns", "//open_auction[itemref='item1']/current", func(d *doc) answer {
			return nodeSet(d.selectAuctions(func(a *auction) bool { return a.itemref.val == "item1" }, current))
		}},
		{"xpatterns", "//item[quantity=2]/name | //person[name='Person 3']/emailaddress", func(d *doc) answer {
			out := d.selectItems(func(it *item) bool { return it.qty == 2 }, itemName)
			return nodeSet(append(out, d.selectPersons(func(p *person) bool {
				return p.name.val == "Person 3" && p.hasEmail
			}, func(p *person) leaf { return p.email })...))
		}},
	},
	[]template{ // Extended Wadler: adds position(), last() and comparisons with numbers
		{"wadler", "//open_auction/bidder[1]/increase", func(d *doc) answer {
			return nodeSet(d.selectAuctions(func(a *auction) bool { return len(a.bidders) > 0 },
				func(a *auction) leaf { return a.bidders[0].increase }))
		}},
		{"wadler", "//open_auction/bidder[last()]/increase", func(d *doc) answer {
			return nodeSet(d.selectAuctions(func(a *auction) bool { return len(a.bidders) > 0 },
				func(a *auction) leaf { return a.bidders[len(a.bidders)-1].increase }))
		}},
		{"wadler", "//open_auction[current > 60]/itemref", func(d *doc) answer {
			return nodeSet(d.selectAuctions(func(a *auction) bool { return a.cur > 60 }, itemref))
		}},
		{"wadler", "//item[position() mod 2 = 0]/name", func(d *doc) answer {
			// position() counts among the item children of one region.
			inRegion := make([]int, len(regionNames))
			return nodeSet(d.selectItems(func(it *item) bool {
				inRegion[it.region]++
				return inRegion[it.region]%2 == 0
			}, itemName))
		}},
		{"wadler", "boolean(//item[quantity > 4])", func(d *doc) answer {
			return boolean(len(d.selectItems(func(it *item) bool { return it.qty > 4 }, itemQty)) > 0)
		}},
		{"wadler", "//person[position() = last()]/name", func(d *doc) answer {
			return nodeSet([]leaf{d.persons[len(d.persons)-1].name})
		}},
	},
	[]template{ // Full XPath: count(), sum() and arithmetic over them
		{"full", "count(//item)", func(d *doc) answer { return number(len(d.items)) }},
		{"full", "sum(//open_auction/current)", func(d *doc) answer {
			sum := 0
			for _, a := range d.auctions {
				sum += a.cur
			}
			return number(sum)
		}},
		{"full", "count(//open_auction[count(bidder) > 2])", func(d *doc) answer {
			return number(len(d.selectAuctions(func(a *auction) bool { return len(a.bidders) > 2 }, current)))
		}},
		{"full", "//open_auction[count(bidder) = 3]/current", func(d *doc) answer {
			return nodeSet(d.selectAuctions(func(a *auction) bool { return len(a.bidders) == 3 }, current))
		}},
		{"full", "sum(//item[shipping]/quantity) + count(//person[emailaddress])", func(d *doc) answer {
			n := 0
			for _, it := range d.items {
				if it.hasShipping {
					n += it.qty
				}
			}
			for _, p := range d.persons {
				if p.hasEmail {
					n++
				}
			}
			return number(n)
		}},
		{"full", "count(//person[emailaddress]) > count(//item[shipping])", func(d *doc) answer {
			emails := len(d.selectPersons(func(p *person) bool { return p.hasEmail }, personName))
			shipped := len(d.selectItems(func(it *item) bool { return it.hasShipping }, itemName))
			return boolean(emails > shipped)
		}},
	},
)

// interleave merges equally long template lists round-robin.
func interleave(classes ...[]template) []template {
	var out []template
	for i := range classes[0] {
		for _, c := range classes {
			out = append(out, c[i])
		}
	}
	return out
}

// unionMember is one operand of a compile_cold union: a node-set
// template instantiated with a literal.
type unionMember struct {
	text   string
	leaves func(d *doc) []leaf
}

// positionalMember is in every union. Its positional predicate keeps
// the union out of the XPatterns fragment, whose evaluator mishandles a
// literal no node equals (see genDoc), and fresh literals are mostly
// that.
func positionalMember(r *rand.Rand) unionMember {
	k := 1 + r.Intn(4)
	return unionMember{fmt.Sprintf("//open_auction/bidder[%d]/increase", k), func(d *doc) []leaf {
		return d.selectAuctions(func(a *auction) bool { return len(a.bidders) >= k },
			func(a *auction) leaf { return a.bidders[k-1].increase })
	}}
}

// unionMembers are the other parameterised node-set templates
// compile_cold draws from; each takes its literal from r.
var unionMembers = []func(r *rand.Rand) unionMember{
	func(r *rand.Rand) unionMember {
		k := 1 + r.Intn(5)
		return unionMember{fmt.Sprintf("//item[quantity=%d]/name", k), func(d *doc) []leaf {
			return d.selectItems(func(it *item) bool { return it.qty == k }, itemName)
		}}
	},
	func(r *rand.Rand) unionMember {
		p := payments[r.Intn(len(payments))]
		return unionMember{fmt.Sprintf("//item[payment='%s']/location", p), func(d *doc) []leaf {
			return d.selectItems(func(it *item) bool { return it.payment.val == p },
				func(it *item) leaf { return it.location })
		}}
	},
	func(r *rand.Rand) unionMember {
		k := 20 + r.Intn(100)
		return unionMember{fmt.Sprintf("//open_auction[current > %d]/itemref", k), func(d *doc) []leaf {
			return d.selectAuctions(func(a *auction) bool { return a.cur > k }, itemref)
		}}
	},
	func(r *rand.Rand) unionMember {
		id := "person" + strconv.Itoa(r.Intn(8))
		return unionMember{fmt.Sprintf("//person[@id='%s']/name", id), func(d *doc) []leaf {
			return d.selectPersons(func(p *person) bool { return p.id == id }, personName)
		}}
	},
	func(r *rand.Rand) unionMember {
		l := locations[r.Intn(len(locations))]
		return unionMember{fmt.Sprintf("//item[location='%s']/quantity", l), func(d *doc) []leaf {
			return d.selectItems(func(it *item) bool { return it.location.val == l }, itemQty)
		}}
	},
}

// coldUnion builds a query text no server has seen before: a union of
// six members, the positional one, four of the others with literals
// drawn from r, and one carrying serial, which the caller never
// repeats. It returns the text and the oracle for it.
func coldUnion(r *rand.Rand, serial string) (string, func(d *doc) answer) {
	members := []unionMember{positionalMember(r)}
	for _, i := range r.Perm(len(unionMembers))[:4] {
		members = append(members, unionMembers[i](r))
	}
	// No item is named after a serial, so this member selects nothing;
	// it only makes the text unique.
	members = append(members, unionMember{
		fmt.Sprintf("//item[name='%s']/payment", serial),
		func(*doc) []leaf { return nil },
	})
	r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	texts := make([]string, len(members))
	for i, m := range members {
		texts[i] = m.text
	}
	return strings.Join(texts, " | "), func(d *doc) answer {
		var all []leaf
		for _, m := range members {
			all = append(all, m.leaves(d)...)
		}
		return nodeSet(all)
	}
}
