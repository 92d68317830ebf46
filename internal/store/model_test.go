package store

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// model is the reference Store: an ordered slice, least recently used
// first, searched and rebuilt by plain loops.
type model struct {
	cfg                     Config
	ents                    []entry[int]
	lastVer                 uint64
	hits, misses, evictions uint64
}

func (m *model) find(key string) int {
	for i, e := range m.ents {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (m *model) bytes() (n int64) {
	for _, e := range m.ents {
		n += e.size
	}
	return n
}

func (m *model) take(i int) entry[int] {
	e := m.ents[i]
	m.ents = append(m.ents[:i:i], m.ents[i+1:]...)
	return e
}

func (m *model) get(key string) (int, uint64, bool) {
	i := m.find(key)
	if i < 0 {
		m.misses++
		return 0, 0, false
	}
	m.hits++
	e := m.take(i)
	m.ents = append(m.ents, e)
	return e.val, e.ver, true
}

func (m *model) putAt(key string, v int, size int64, ver uint64) (uint64, error) {
	size = max(size, 0)
	m.lastVer = max(m.lastVer, ver)
	if m.cfg.MaxBytes > 0 && size > m.cfg.MaxBytes {
		return 0, ErrTooLarge
	}
	i, prev := m.find(key), int64(0)
	switch {
	case i >= 0 && ver > 0 && m.ents[i].ver >= ver:
		return m.ents[i].ver, nil
	case i >= 0:
		prev = m.ents[i].size
	case m.cfg.MaxEntries > 0 && len(m.ents) >= m.cfg.MaxEntries:
		return 0, ErrFull
	}
	if m.cfg.Policy == EvictReject && m.cfg.MaxBytes > 0 && m.bytes()-prev+size > m.cfg.MaxBytes {
		return 0, ErrFull
	}
	if i >= 0 {
		m.take(i)
	}
	for m.cfg.MaxBytes > 0 && m.bytes()+size > m.cfg.MaxBytes {
		m.take(0)
		m.evictions++
	}
	if ver == 0 {
		m.lastVer++
		ver = m.lastVer
	}
	m.ents = append(m.ents, entry[int]{key: key, val: v, size: size, ver: ver})
	return ver, nil
}

func (m *model) deleteIf(key string, cond func(int, int64) bool) bool {
	i := m.find(key)
	if i < 0 || cond != nil && !cond(m.ents[i].val, m.ents[i].size) {
		return false
	}
	m.take(i)
	return true
}

// FuzzStore runs one fuzzer-chosen sequence of Put, PutAt, Get, Delete
// and DeleteIf calls under a fuzzer-chosen Config against both the
// Store and the model. After every call the results, the resident
// entries in recency order (so which entries were evicted), the budgets
// and the Stats totals must agree; a key's version never goes down
// while it stays resident, and a version Put assigns exceeds every
// version seen before it.
func FuzzStore(f *testing.F) {
	const maxOps = 256 // keeps one run cheap: unbounded inputs ran at about 20 execs a second
	f.Add([]byte{80, 0, 0, 0, 0, 10, 0, 0, 1, 10, 0, 2, 0, 0, 0, 0, 3, 10, 0})
	f.Add([]byte{30, 2, 1, 0, 1, 12, 0, 1, 2, 20, 9, 1, 2, 20, 5, 3, 1, 0, 0, 4, 2, 0, 1, 0, 0, 12, 0})
	f.Add([]byte{0, 3, 0, 1, 0, 5, 40, 1, 0, 5, 20, 3, 0, 0, 0, 0, 0, 7, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 3+4*maxOps {
			return
		}
		cfg := Config{MaxBytes: int64(data[0] % 64), MaxEntries: int(data[1] % 6), Policy: EvictionPolicy(data[2] % 2)}
		s, m := New[int](cfg), &model{cfg: cfg}
		var top uint64 // the highest version either side has returned
		for i, op := 0, data[3:]; len(op) >= 4; i, op = i+1, op[4:] {
			key, size, ver := fmt.Sprintf("k%d", op[1]%6), int64(op[2]%32)-2, uint64(op[3]%48)
			var call string
			switch op[0] % 5 {
			case 0, 1:
				if op[0]%5 == 0 {
					ver = 0
				}
				call = fmt.Sprintf("PutAt(%s, %d, %d, %d)", key, i, size, ver)
				var resident uint64
				if j := m.find(key); j >= 0 {
					resident = m.ents[j].ver
				}
				put := s.PutAt
				if ver == 0 {
					put = func(k string, v int, size int64, _ uint64) (uint64, error) { return s.Put(k, v, size) }
				}
				got, err := put(key, i, size, ver)
				want, werr := m.putAt(key, i, size, ver)
				if got != want || !errors.Is(err, werr) {
					t.Fatalf("%s = (%d, %v), model (%d, %v)", call, got, err, want, werr)
				}
				if err == nil && (got < resident || ver == 0 && got <= top) {
					t.Fatalf("%s gave version %d: resident %d, highest seen %d", call, got, resident, top)
				}
				top = max(top, got)
			case 2:
				call = "Get(" + key + ")"
				v, ver, ok := s.Get(key)
				wv, wver, wok := m.get(key)
				if v != wv || ver != wver || ok != wok {
					t.Fatalf("%s = (%d, %d, %v), model (%d, %d, %v)", call, v, ver, ok, wv, wver, wok)
				}
			default:
				call = "Delete(" + key + ")"
				var got bool
				var cond func(int, int64) bool
				if op[0]%5 == 3 {
					got = s.Delete(key)
				} else {
					call = "DeleteIf(" + key + ", size odd)"
					if op[2]%2 == 0 {
						call = "DeleteIf(" + key + ", size even)"
					}
					parity := int64(op[2] % 2)
					cond = func(_ int, size int64) bool { return size%2 == parity }
					got = s.DeleteIf(key, cond)
				}
				if want := m.deleteIf(key, cond); got != want {
					t.Fatalf("%s = %v, model %v", call, got, want)
				}
			}
			var resident []entry[int] // most recently used first, as Range visits
			s.Range(func(k string, v int, size int64, ver uint64) bool {
				resident = append(resident, entry[int]{key: k, val: v, size: size, ver: ver})
				return true
			})
			slices.Reverse(resident)
			if !slices.Equal(resident, m.ents) {
				t.Fatalf("after %s, resident LRU first = %v, model %v", call, resident, m.ents)
			}
			st := s.Stats()
			want := Stats{Entries: len(m.ents), Bytes: m.bytes(), Hits: m.hits, Misses: m.misses, Evictions: m.evictions}
			if st != want {
				t.Fatalf("after %s, Stats = %+v, model %+v", call, st, want)
			}
			if cfg.MaxBytes > 0 && st.Bytes > cfg.MaxBytes || cfg.MaxEntries > 0 && st.Entries > cfg.MaxEntries {
				t.Fatalf("after %s, Stats = %+v exceed %+v", call, st, cfg)
			}
		}
	})
}
