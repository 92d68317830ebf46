package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/workload"
)

// fuzzMaxBody is the body bound FuzzPeerFrame decodes request frames
// under: small, so that mutations reach past it.
const fuzzMaxBody = 1 << 10

func requestFrame(method, target, id string, body []byte) []byte {
	meta := frameStringLen(method) + frameStringLen(target) + frameStringLen(id)
	b := appendFrameHeader(nil, frameRequest, meta+len(body))
	b = appendFrameString(appendFrameString(appendFrameString(b, method), target), id)
	return append(b, body...)
}

func headFrame(status int, declared int64) []byte {
	b := appendFrameHeader(nil, frameHead, headPayloadLen)
	b = binary.BigEndian.AppendUint16(b, uint16(status))
	return binary.BigEndian.AppendUint64(b, uint64(declared))
}

func bodyFrame(p string) []byte { return append(appendFrameHeader(nil, frameBody, len(p)), p...) }

var endFrame = appendFrameHeader(nil, frameEnd, 0)

func cat(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

// FuzzPeerFrame feeds arbitrary bytes to the frame decoders, as a
// backend reads them (request frames) and as a router does (head, body
// frames, end, response after response). Each must yield a frame, a
// clean end of input, or ErrFrame — never a panic, and never a read (so
// never an allocation) of a payload whose declared length is past its
// bound: such a frame fails with nothing but its header consumed.
func FuzzPeerFrame(f *testing.F) {
	response := cat(headFrame(200, 5), bodyFrame(`{"a":`), bodyFrame(`1}`), endFrame)
	f.Add(requestFrame("POST", "/query", "rid", []byte(`{"doc":"d","query":"1"}`)))
	f.Add(cat(requestFrame("GET", "/healthz", "", nil), requestFrame("DELETE", "/documents?name=d", "x", nil)))
	f.Add(response)
	f.Add(response[:7])                                                               // a truncated head
	f.Add(appendFrameHeader(nil, frameRequest, fuzzMaxBody+maxRequestMeta+1))         // a length past the bound
	f.Add(cat(headFrame(200, -1), appendFrameHeader(nil, frameBody, maxBodyFrame+1))) // a body frame past its bound
	f.Add(cat(bodyFrame("{}"), headFrame(200, 2), endFrame))                          // a body frame before the head
	f.Add(cat(headFrame(200, 0), endFrame, endFrame))                                 // two end frames
	f.Add(cat(headFrame(99, 0), endFrame))                                            // a status out of range
	f.Add(append(appendFrameHeader(nil, frameRequest, 3), 0x80, 0x80, 0x80))          // an unterminated uvarint
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(what string, err error) {
			if err != io.EOF && !errors.Is(err, ErrFrame) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
		}
		// As a backend reads them.
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		consumed := func() int { return len(data) - src.Len() - br.Buffered() }
		for {
			at := consumed()
			rest := data[at:]
			req, err := readRequest(br, fuzzMaxBody)
			if err != nil {
				typed("request", err)
				if len(rest) >= frameHeaderLen && binary.BigEndian.Uint32(rest[1:]) > fuzzMaxBody+maxRequestMeta && consumed() != at+frameHeaderLen {
					t.Fatalf("an oversized frame was read past its header: %d bytes", consumed()-at)
				}
				break
			}
			if int64(len(req.body)) > fuzzMaxBody+maxRequestMeta || req.method == "" || req.target == "" {
				t.Fatalf("decoded %+v out of bounds", req)
			}
			req.release()
		}
		// As a router reads them.
		br = bufio.NewReader(bytes.NewReader(data))
		for {
			status, declared, err := readHead(br)
			if err != nil {
				typed("head", err)
				break
			}
			if status < 100 || status > 999 || declared < -1 {
				t.Fatalf("head %d, %d out of range", status, declared)
			}
			body := &peerBody{c: &peerClientConn{br: br}}
			if _, err := io.Copy(io.Discard, body); err != nil {
				typed("body", err)
				break
			}
			if !body.done {
				t.Fatal("a body read to its end without an end frame")
			}
		}
	})
}

// TestShutdownDrainsPeerConnections is xpathserve's drain on its peer
// connections: Shutdown closes an idle one at once, lets a framed
// /batch in flight on another run to its end frame, and refuses new
// calls.
func TestShutdownDrainsPeerConnections(t *testing.T) {
	srv := New(engine.New(engine.Options{CacheSize: 32, Workers: 1}), store.Config{})
	if _, _, err := srv.AddDocument("d", workload.Doc(3000).XMLString()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	tr := NewPeerTransport(5 * time.Second)
	client := &http.Client{Transport: tr}
	ctx := context.Background()

	// A batch of slow queries in flight on one connection...
	const slow = "count(//*[count(preceding::*) > count(following::*)])"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/batch", strings.NewReader(`{"doc":"d","queries":["count(/*)","`+slow+`","`+slow+`"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewReader(resp.Body)
	if _, err := lines.ReadBytes('\n'); err != nil {
		t.Fatalf("first line: %v", err)
	}
	// ...and an idle one beside it, pooled after a call made meanwhile.
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if resp, err := client.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	key := ln.Addr().String()
	if len(tr.idle[key]) != 1 {
		t.Fatalf("%d pooled connections, want 1", len(tr.idle[key]))
	}
	idle := tr.idle[key][0]

	drained := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 20*time.Second)
		defer cancel()
		drained <- srv.Shutdown(sctx)
	}()
	idle.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := idle.br.Peek(1); err != io.EOF {
		t.Fatalf("idle peer connection on shutdown: %v, want it closed (EOF)", err)
	}
	for i := 1; i < 3; i++ {
		line, err := lines.ReadBytes('\n')
		if err != nil || !bytes.Contains(line, []byte(`"value"`)) {
			t.Fatalf("line %d of the in-flight batch: %q, %v", i+1, line, err)
		}
	}
	if _, err := lines.ReadByte(); err != io.EOF {
		t.Fatalf("after the last line: %v, want the end frame", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	req, _ = http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if resp, err := client.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("a call after shutdown was answered")
	}
}
