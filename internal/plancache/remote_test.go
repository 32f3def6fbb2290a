package plancache

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// pipeGet runs one Remote.Get for key against a peer, over net.Pipe, that
// reads the request line, answers with reply and hangs up.
func pipeGet(t *testing.T, key string, reply []byte) ([]byte, bool, error) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		if _, err := bufio.NewReader(server).ReadString('\n'); err != nil {
			return
		}
		server.Write(reply) // fails once the client gives up; nothing to report
	}()
	dialed := false
	r := NewRemote("pipe", RemoteOptions{Dial: func(context.Context) (net.Conn, error) {
		if dialed {
			return nil, errors.New("pipe already used")
		}
		dialed = true
		return client, nil
	}})
	value, found, err := r.Get(context.Background(), key)
	r.Close()
	client.Close()
	<-done
	return value, found, err
}

// TestRemoteGetRejectsHugeValue: a VALUE header over the item limit is a
// protocol error, not an allocation; the maximum int size used to overflow
// the buffer length and panic.
func TestRemoteGetRejectsHugeValue(t *testing.T) {
	for _, size := range []string{"9223372036854775807", strconv.Itoa(maxItemBytes + 1)} {
		_, found, err := pipeGet(t, "k", []byte("VALUE k 0 "+size+"\r\n"))
		if err == nil || found {
			t.Errorf("VALUE size %s: found=%v err=%v, want an error", size, found, err)
		}
	}
	value := bytes.Repeat([]byte{'v'}, maxItemBytes)
	reply := append(append([]byte(fmt.Sprintf("VALUE k 0 %d\r\n", len(value))), value...), "\r\nEND\r\n"...)
	got, found, err := pipeGet(t, "k", reply)
	if err != nil || !found || !bytes.Equal(got, value) {
		t.Fatalf("at-limit VALUE: found=%v err=%v len=%d", found, err, len(got))
	}
}

// TestRemoteSetRefusesOversizedValue: a value over the item limit fails
// before any connection is made; one at the limit is stored.
func TestRemoteSetRefusesOversizedValue(t *testing.T) {
	srv, err := NewMemcachedServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dials := 0
	r := NewRemote(srv.Addr(), RemoteOptions{Dial: func(ctx context.Context) (net.Conn, error) {
		dials++
		var d net.Dialer
		return d.DialContext(ctx, "tcp", srv.Addr())
	}})
	defer r.Close()
	ctx := context.Background()
	if err := r.Set(ctx, "big", make([]byte, maxItemBytes+1), 0); err == nil {
		t.Fatal("oversized value accepted")
	}
	if dials != 0 {
		t.Fatalf("oversized Set dialed %d times, want 0", dials)
	}
	if err := r.Set(ctx, "max", make([]byte, maxItemBytes), 0); err != nil {
		t.Fatalf("at-limit Set: %v", err)
	}
	if st := r.Stats(); st.Errors != 1 || st.Sets != 1 {
		t.Fatalf("stats = %+v, want 1 error and 1 set", st)
	}
}

// TestMemcachedServerRefusesOversizedItem: the stub answers an over-limit
// set as memcached does and keeps the connection in sync.
func TestMemcachedServerRefusesOversizedItem(t *testing.T) {
	srv, err := NewMemcachedServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(c)
	written := make(chan struct{})
	go func() {
		defer close(written)
		fmt.Fprintf(c, "set big 0 0 %d\r\n", maxItemBytes+1)
		c.Write(make([]byte, maxItemBytes+1))
		fmt.Fprintf(c, "\r\nget big\r\n")
	}()
	defer func() { c.Close(); <-written }()
	for _, want := range []string{"SERVER_ERROR object too large for cache", "END"} {
		line, err := readLine(br)
		if err != nil {
			t.Fatal(err)
		}
		if line != want {
			t.Fatalf("reply %q, want %q", line, want)
		}
	}
	if srv.Len() != 0 {
		t.Fatalf("stub holds %d items after a refused set, want 0", srv.Len())
	}
}

// FuzzRemoteGet feeds arbitrary server bytes to Get: it must never panic,
// never allocate or return a value over the item limit, and a value it
// reports found must be exactly the bytes the VALUE line framed.
func FuzzRemoteGet(f *testing.F) {
	f.Fuzz(func(t *testing.T, reply []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		value, found, err := pipeGet(t, "k", reply)
		runtime.ReadMemStats(&after)
		// One buffer of at most the item limit, plus connection overhead.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*maxItemBytes {
			t.Fatalf("Get allocated %d bytes for a %d-byte reply", grew, len(reply))
		}
		if err != nil || !found {
			if found || value != nil {
				t.Fatalf("miss or error returned found=%v value=%q", found, value)
			}
			return
		}
		if len(value) > maxItemBytes {
			t.Fatalf("value of %d bytes exceeds the item limit", len(value))
		}
		line, rest, _ := bytes.Cut(reply, []byte("\r\n"))
		fields := strings.Fields(string(line))
		if len(fields) != 4 || fields[0] != "VALUE" {
			t.Fatalf("found a value, but the reply starts with %q", line)
		}
		size, err := strconv.Atoi(fields[3])
		if err != nil || size != len(value) || len(rest) < size || !bytes.Equal(value, rest[:size]) {
			t.Fatalf("found %q, but the VALUE line %q frames other bytes", value, line)
		}
	})
}
