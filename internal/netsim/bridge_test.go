package netsim

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// pipeDialer returns a dial function that hands out the near end of a
// fresh BufferedPipe per dial and delivers the far end on the channel.
func pipeDialer() (func(context.Context) (net.Conn, error), <-chan net.Conn) {
	far := make(chan net.Conn, 4)
	return func(context.Context) (net.Conn, error) {
		near, f := BufferedPipe()
		far <- f
		return near, nil
	}, far
}

func serveBridge(t *testing.T, dial func(context.Context) (net.Conn, error)) (*Bridge, <-chan error) {
	t.Helper()
	br, err := NewBridge("127.0.0.1:0", dial)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- br.Serve(ctx) }()
	return br, done
}

func nextFar(t *testing.T, far <-chan net.Conn) net.Conn {
	t.Helper()
	select {
	case c := <-far:
		return c
	case <-time.After(3 * time.Second):
		t.Fatal("bridge never dialed")
		return nil
	}
}

// echo writes msg on w and reads it back on r.
func echo(t *testing.T, w, r net.Conn, msg string) {
	t.Helper()
	if _, err := w.Write([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	r.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := ioReadFull(r, buf); err != nil {
		t.Fatalf("read %q: %v", msg, err)
	}
	if string(buf) != msg {
		t.Errorf("got %q, want %q", buf, msg)
	}
}

// readsEOF reports whether c's next read ends the stream without data.
func readsEOF(c net.Conn) bool {
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	n, err := c.Read(make([]byte, 1))
	var ne net.Error
	return n == 0 && err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

func TestBridgeSplicesBothDirections(t *testing.T) {
	dial, far := pipeDialer()
	br, _ := serveBridge(t, dial)

	remote, err := net.Dial("tcp", br.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	inner := nextFar(t, far)
	echo(t, remote, inner, "hello") // remote -> inner
	echo(t, inner, remote, "world") // inner -> remote

	// Closing the remote ends the inner session, and the bridge serves
	// the next connection over a fresh dial.
	remote.Close()
	if !readsEOF(inner) {
		t.Error("inner session survived the remote's close")
	}
	again, err := net.Dial("tcp", br.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	echo(t, again, nextFar(t, far), "again")
}

func ioReadFull(r interface{ Read([]byte) (int, error) }, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func TestBridgeSingleSession(t *testing.T) {
	dial, far := pipeDialer()
	br, _ := serveBridge(t, dial)

	first, err := net.Dial("tcp", br.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	inner := nextFar(t, far)
	echo(t, first, inner, "one")

	// A second connection while the first is served is closed unserved.
	second, err := net.Dial("tcp", br.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if !readsEOF(second) {
		t.Error("second concurrent connection was not closed")
	}
	select {
	case <-far:
		t.Error("second connection was dialed through")
	default:
	}
	echo(t, inner, first, "still")
}

func TestBridgeFailedDialClosesConn(t *testing.T) {
	br, _ := serveBridge(t, func(context.Context) (net.Conn, error) {
		return nil, errors.New("endpoint down")
	})
	for range 2 { // a failed dial frees the bridge for the next try
		c, err := net.Dial("tcp", br.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if !readsEOF(c) {
			t.Error("connection survived a failed dial")
		}
		c.Close()
	}
}

func TestBridgeContextCancel(t *testing.T) {
	dial, _ := pipeDialer()
	br, err := NewBridge("127.0.0.1:0", dial)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- br.Serve(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve after cancel = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not return on cancel")
	}
}

func TestBufferedPipeDeadline(t *testing.T) {
	a, b := BufferedPipe()
	defer a.Close()
	defer b.Close()
	a.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := a.Read(buf)
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("read past deadline = %v, want timeout net.Error", err)
	}
	// Clearing the deadline re-arms reads.
	a.SetReadDeadline(time.Time{})
	go b.Write([]byte{42}) //nolint:errcheck
	if _, err := a.Read(buf); err != nil || buf[0] != 42 {
		t.Fatalf("read after clearing deadline: %v %v", buf, err)
	}
}

func TestBufferedPipeEOFAfterClose(t *testing.T) {
	a, b := BufferedPipe()
	if _, err := a.Write([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Buffered data drains, then EOF.
	buf := make([]byte, 2)
	if _, err := ioReadFull(b, buf); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := b.Read(buf); err == nil {
		t.Error("expected EOF after drain")
	}
	// Writes to a closed pipe fail.
	if _, err := b.Write([]byte("z")); err == nil {
		t.Error("write to closed pipe should fail")
	}
	if a.LocalAddr().Network() != "bufpipe" || a.RemoteAddr().String() == "" {
		t.Error("addr methods broken")
	}
	if err := a.SetDeadline(time.Time{}); err != nil {
		t.Error(err)
	}
	if err := a.SetWriteDeadline(time.Now()); err != nil {
		t.Error(err)
	}
}
