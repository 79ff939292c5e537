package netsim

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Bridge exposes a router's in-memory sessions (a BMPDialer or
// ControllerDialer) on a real TCP listener, so that an external
// controller process can attach: popsim runs bridges, edgefabricd dials
// them. Each accepted connection is spliced to a fresh dial, so the
// session heals the way a real router's does: after a BMP kill, an iBGP
// reset or a controller restart, the next connection gets a new session.
// These are point-to-point control sessions, so one remote connection
// is served at a time; a connection that arrives while one is served,
// or whose dial fails (a killed BMP endpoint), is closed.
type Bridge struct {
	ln   net.Listener
	dial func(ctx context.Context) (net.Conn, error)
	busy atomic.Bool // a remote connection is being served
}

// NewBridge listens on addr (e.g. "127.0.0.1:11019") and will splice
// each accepted connection to a connection from dial.
func NewBridge(addr string, dial func(ctx context.Context) (net.Conn, error)) (*Bridge, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: bridge listen %s: %w", addr, err)
	}
	return &Bridge{ln: ln, dial: dial}, nil
}

// Addr returns the listener address.
func (b *Bridge) Addr() net.Addr { return b.ln.Addr() }

// Serve accepts remote connections until ctx ends, splicing each to a
// fresh dial. It returns nil when ctx ends.
func (b *Bridge) Serve(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { b.ln.Close() })
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if !b.busy.CompareAndSwap(false, true) {
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.splice(ctx, conn)
		}()
	}
}

// splice dials the inner session and copies both ways until either side
// closes or ctx ends.
func (b *Bridge) splice(ctx context.Context, conn net.Conn) {
	inner, err := b.dial(ctx)
	if err != nil {
		b.release(conn)
		return
	}
	end := sync.OnceFunc(func() {
		b.release(conn)
		inner.Close()
	})
	stop := context.AfterFunc(ctx, end)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = io.Copy(conn, inner)
		end()
	}()
	_, _ = io.Copy(inner, conn)
	end()
	<-done
}

// release frees the bridge for the next connection and then closes
// conn, so a remote that sees its session end can reconnect at once.
func (b *Bridge) release(conn net.Conn) {
	b.busy.Store(false)
	conn.Close()
}
