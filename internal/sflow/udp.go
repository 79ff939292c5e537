package sflow

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
)

// UDPSink sends each datagram to a fixed remote address over a packet
// connection — the transport real sFlow agents use.
type UDPSink struct {
	conn  net.PacketConn
	raddr net.Addr
}

// NewUDPSink dials raddr ("host:port") and returns a Sink writing each
// datagram as one UDP packet.
func NewUDPSink(raddr string) (*UDPSink, error) {
	addr, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, fmt.Errorf("sflow: resolve %s: %w", raddr, err)
	}
	conn, err := net.ListenPacket("udp", ":0")
	if err != nil {
		return nil, err
	}
	return &UDPSink{conn: conn, raddr: addr}, nil
}

// SendDatagram implements Sink.
func (s *UDPSink) SendDatagram(b []byte) error {
	_, err := s.conn.WriteTo(b, s.raddr)
	return err
}

// Close releases the socket.
func (s *UDPSink) Close() error { return s.conn.Close() }

// DefaultReaders is the default size of a ServeUDPConns reader pool:
// min(4, GOMAXPROCS). More readers than cores just thrash; more than a
// handful per socket hits the kernel's per-socket lock instead.
func DefaultReaders() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ListenUDP opens up to readers UDP sockets bound to addr for a
// multi-reader ingest pool. Where SO_REUSEPORT is available the sockets
// are kernel-duplicated — the kernel spreads datagrams across them by
// flow hash, so readers never contend on one socket lock. Elsewhere (or
// if the duplicated binds fail) it falls back cleanly to a single
// socket, which ServeUDPConns then shares among its readers. The caller
// closes the conns (ServeUDPConns does so when its context ends).
func ListenUDP(addr string, readers int) ([]net.PacketConn, error) {
	if readers < 1 {
		readers = 1
	}
	if !reusePortSupported || readers == 1 {
		conn, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, err
		}
		return []net.PacketConn{conn}, nil
	}
	lc := net.ListenConfig{Control: reusePortControl}
	first, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		// SO_REUSEPORT refused (unusual kernel/filter): plain socket.
		conn, perr := net.ListenPacket("udp", addr)
		if perr != nil {
			return nil, err
		}
		return []net.PacketConn{conn}, nil
	}
	conns := []net.PacketConn{first}
	// addr may carry port 0; the duplicates must bind the port the
	// kernel actually assigned.
	bound := first.LocalAddr().String()
	for len(conns) < readers {
		conn, err := lc.ListenPacket(context.Background(), "udp", bound)
		if err != nil {
			break // fall back to however many sockets we got
		}
		conns = append(conns, conn)
	}
	return conns, nil
}

// errNoRawConn marks a conn that can't expose a raw descriptor for
// batched I/O; readers fall back to the portable loop.
var errNoRawConn = errors.New("sflow: conn does not support raw batched I/O")

// errEmptyPacket rejects zero-length sends, which sendmmsg would treat
// as valid empty datagrams.
var errEmptyPacket = errors.New("sflow: empty packet")

// servePacketConns runs a pool of reader goroutines over conns, calling
// handle with each datagram (the buffer is reused per reader; handle
// must not retain it). Every conn gets at least one reader; extra
// readers are spread round-robin. On Linux each reader drains bursts
// with recvmmsg (one syscall per burst instead of per packet); other
// platforms, and conns without raw descriptors, use the portable
// one-read-per-packet loop. Returns nil when ctx ends (closing all
// conns), else the first socket error.
func servePacketConns(ctx context.Context, conns []net.PacketConn, readers int, handle func(b []byte)) error {
	if len(conns) == 0 {
		return errors.New("sflow: no packet conns")
	}
	if readers < len(conns) {
		readers = len(conns)
	}
	stop := context.AfterFunc(ctx, func() {
		for _, c := range conns {
			c.Close()
		}
	})
	defer stop()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			// Tear the whole pool down: one dead socket means the
			// listener is broken, not just one reader.
			for _, c := range conns {
				c.Close()
			}
		})
	}
	for i := 0; i < readers; i++ {
		conn := conns[i%len(conns)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if br, err := newBatchReader(conn); err == nil {
				for {
					if err := br.read(handle); err != nil {
						if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
							fail(err)
						}
						return
					}
				}
			}
			buf := make([]byte, MaxDatagramLen)
			for {
				n, _, err := conn.ReadFrom(buf)
				if err != nil {
					if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
						fail(err)
					}
					return
				}
				handle(buf[:n])
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// ServeUDPConns ingests from a reader pool spread across conns (as
// returned by ListenUDP) until ctx ends or a socket fails.
func (c *Collector) ServeUDPConns(ctx context.Context, conns []net.PacketConn) error {
	return servePacketConns(ctx, conns, c.cfg.Readers, func(b []byte) {
		if err := c.SendDatagram(b); err != nil {
			// A malformed datagram is logged by count, not fatal — and
			// counted separately from unmappable records so operators can
			// tell a broken agent from incomplete route coverage.
			c.noteMalformed()
		}
	})
}
