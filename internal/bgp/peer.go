package bgp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"edgefabric/internal/wire"
)

// State is a BGP session state. The Connect/Active distinction collapses
// into StateConnect because transport establishment is delegated to the
// configured dialer or to the Speaker's listener.
type State int32

// Session states.
const (
	StateIdle State = iota
	StateConnect
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

// String returns the RFC state name.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateConnect:
		return "Connect"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// SessionHandler receives session lifecycle and route events. Methods are
// called from the peer's session goroutine; implementations that block
// stall the session (and its hold timer), so hand heavy work off.
type SessionHandler interface {
	// HandleEstablished is called when the session reaches Established.
	HandleEstablished(p *Peer, open *Open)
	// HandleUpdate is called for every received UPDATE.
	HandleUpdate(p *Peer, u *Update)
	// HandleDown is called when an established or establishing session
	// ends, with the terminating error.
	HandleDown(p *Peer, reason error)
}

// NopHandler is a SessionHandler that ignores everything; embed it to
// implement only the events of interest.
type NopHandler struct{}

// HandleEstablished implements SessionHandler.
func (NopHandler) HandleEstablished(*Peer, *Open) {}

// HandleUpdate implements SessionHandler.
func (NopHandler) HandleUpdate(*Peer, *Update) {}

// HandleDown implements SessionHandler.
func (NopHandler) HandleDown(*Peer, error) {}

// PeerConfig configures one BGP neighbor.
type PeerConfig struct {
	// LocalAS and RouterID identify the local speaker.
	LocalAS  uint32
	RouterID netip.Addr
	// PeerAddr is the neighbor's address, used as route identity and to
	// match incoming connections. Required.
	PeerAddr netip.Addr
	// PeerAS, when nonzero, is enforced against the neighbor's OPEN.
	PeerAS uint32
	// HoldTime is the proposed hold time; the session uses
	// min(local, remote). Zero proposes 90 s. Sessions reject a
	// negotiated nonzero hold time under one second.
	HoldTime time.Duration
	// Dial, when set, makes the peer active: it dials (with backoff)
	// whenever the session is down. When nil the peer is passive and
	// waits for Accept.
	Dial func(ctx context.Context) (net.Conn, error)
	// Handler receives events; nil means events are dropped.
	Handler SessionHandler
	// Logf, when set, receives one-line session log events.
	Logf func(format string, args ...any)
}

// Peer is one BGP neighbor relationship. It survives session flaps: an
// active peer redials, a passive peer waits for the next Accept.
type Peer struct {
	cfg   PeerConfig
	state atomic.Int32

	mu      sync.Mutex // guards conn writes and session identity
	conn    net.Conn
	wbuf    *wire.Writer
	codec   CodecOptions
	estCh   chan struct{} // closed when established; replaced on down
	peerASN uint32

	acceptCh chan net.Conn
	closed   atomic.Bool

	// Counters (atomic).
	msgsIn, msgsOut, updatesIn, updatesOut, flaps atomic.Uint64
}

// NewPeer returns a Peer for cfg. Call Run to operate it.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	if !cfg.PeerAddr.IsValid() {
		return nil, errors.New("bgp: PeerConfig.PeerAddr required")
	}
	if !cfg.RouterID.Is4() {
		return nil, errors.New("bgp: PeerConfig.RouterID must be IPv4")
	}
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 90 * time.Second
	}
	return &Peer{
		cfg:      cfg,
		estCh:    make(chan struct{}),
		acceptCh: make(chan net.Conn, 1),
	}, nil
}

// Addr returns the configured neighbor address.
func (p *Peer) Addr() netip.Addr { return p.cfg.PeerAddr }

// AS returns the neighbor AS learned from its OPEN, or the configured
// value before the first session establishes.
func (p *Peer) AS() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.peerASN != 0 {
		return p.peerASN
	}
	return p.cfg.PeerAS
}

// State reports the current session state.
func (p *Peer) State() State { return State(p.state.Load()) }

// Stats reports message counters: total in/out and updates in/out, plus
// the number of session flaps (transitions out of Established).
func (p *Peer) Stats() (msgsIn, msgsOut, updatesIn, updatesOut, flaps uint64) {
	return p.msgsIn.Load(), p.msgsOut.Load(), p.updatesIn.Load(), p.updatesOut.Load(), p.flaps.Load()
}

// Established returns a channel closed while the current session is
// established, from the moment the handler's HandleEstablished has
// returned. After a flap a new channel is installed; callers should
// re-request it.
func (p *Peer) Established() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.estCh
}

// WaitEstablished blocks until the session is established and the
// handler has observed it (HandleEstablished returned), or ctx ends.
func (p *Peer) WaitEstablished(ctx context.Context) error {
	select {
	case <-p.Established():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Accept hands an established transport connection (e.g. from a
// listener, or one side of a net.Pipe) to a passive peer. It returns an
// error if a session is already running.
func (p *Peer) Accept(conn net.Conn) error {
	if p.closed.Load() {
		return errors.New("bgp: peer closed")
	}
	select {
	case p.acceptCh <- conn:
		return nil
	default:
		return fmt.Errorf("bgp: peer %s already has a pending connection", p.cfg.PeerAddr)
	}
}

// Run operates the peer until ctx is cancelled: active peers dial with
// exponential backoff; passive peers consume connections from Accept.
// Run returns ctx.Err.
func (p *Peer) Run(ctx context.Context) error {
	defer p.closed.Store(true)
	backoff := 50 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		var conn net.Conn
		if p.cfg.Dial != nil {
			p.state.Store(int32(StateConnect))
			c, err := p.cfg.Dial(ctx)
			if err != nil {
				p.logf("dial %s: %v (retry in %v)", p.cfg.PeerAddr, err, backoff)
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(backoff):
				}
				backoff = min(backoff*2, maxBackoff)
				continue
			}
			conn = c
		} else {
			p.state.Store(int32(StateIdle))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case conn = <-p.acceptCh:
			}
		}
		backoff = 50 * time.Millisecond
		err := p.runSession(ctx, conn)
		p.sessionDown(err)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		p.logf("session %s down: %v", p.cfg.PeerAddr, err)
	}
}

func (p *Peer) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

func (p *Peer) sessionDown(err error) {
	p.mu.Lock()
	wasEst := State(p.state.Load()) == StateEstablished
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	select {
	case <-p.estCh:
		// Was closed (established): replace for the next session.
		p.estCh = make(chan struct{})
	default:
	}
	p.state.Store(int32(StateIdle))
	p.mu.Unlock()
	if wasEst {
		p.flaps.Add(1)
	}
	if p.cfg.Handler != nil {
		p.cfg.Handler.HandleDown(p, err)
	}
}

// send encodes and writes one message on the current session.
func (p *Peer) send(m Message) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sendLocked(m)
}

func (p *Peer) sendLocked(m Message) error {
	if p.conn == nil {
		return errors.New("bgp: session not running")
	}
	if p.wbuf == nil {
		p.wbuf = wire.NewWriter(1024)
	}
	p.wbuf.Reset()
	if err := Marshal(p.wbuf, m, &p.codec); err != nil {
		return err
	}
	if _, err := p.conn.Write(p.wbuf.Bytes()); err != nil {
		return err
	}
	p.msgsOut.Add(1)
	return nil
}

// SendUpdate sends an UPDATE on an established session.
func (p *Peer) SendUpdate(u *Update) error {
	if p.State() != StateEstablished {
		return fmt.Errorf("bgp: peer %s not established", p.cfg.PeerAddr)
	}
	if err := p.send(u); err != nil {
		return err
	}
	p.updatesOut.Add(1)
	return nil
}

// Notify sends a NOTIFICATION and drops the session.
func (p *Peer) Notify(code NotificationCode, subcode uint8) error {
	err := p.send(&Notification{Code: code, Subcode: subcode})
	p.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()
	return err
}

// runSession performs the OPEN handshake and runs the message loop until
// the session ends, returning the terminating error.
func (p *Peer) runSession(ctx context.Context, conn net.Conn) error {
	p.mu.Lock()
	p.conn = conn
	p.codec = CodecOptions{} // negotiated below
	p.mu.Unlock()

	buf := make([]byte, MaxMessageLen)
	// readOne reads a single message with a deadline, mapping timeouts
	// to hold-timer expiry.
	readOne := func(codec *CodecOptions, timeout time.Duration) (Message, error) {
		if timeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(timeout))
		}
		m, err := ReadMessage(conn, buf, codec)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return nil, fmt.Errorf("bgp: %w", errHoldExpired)
			}
			return nil, err
		}
		p.msgsIn.Add(1)
		return m, nil
	}

	// --- OpenSent ---
	// The OPEN is sent asynchronously: on synchronous transports
	// (net.Pipe) a write blocks until the peer reads, and the peer is
	// busy writing its own OPEN first.
	p.state.Store(int32(StateOpenSent))
	holdSecs := uint16(p.cfg.HoldTime / time.Second)
	open := NewOpen(p.cfg.LocalAS, holdSecs, p.cfg.RouterID)
	sendErr := make(chan error, 1)
	go func() { sendErr <- p.send(open) }()
	m, err := readOne(DefaultCodec, p.cfg.HoldTime)
	if err != nil {
		conn.Close() // unblock the async OPEN write
		<-sendErr
		return fmt.Errorf("bgp: await OPEN: %w", err)
	}
	if err := <-sendErr; err != nil {
		return fmt.Errorf("bgp: send OPEN: %w", err)
	}
	peerOpen, ok := m.(*Open)
	if !ok {
		if n, isNotif := m.(*Notification); isNotif {
			return n
		}
		_ = p.Notify(NotifFSMError, 0)
		return fmt.Errorf("bgp: expected OPEN, got %v", m.MsgType())
	}
	peerASN := peerOpen.FourOctetAS()
	if p.cfg.PeerAS != 0 && peerASN != p.cfg.PeerAS {
		_ = p.Notify(NotifOpenError, OpenBadPeerAS)
		return fmt.Errorf("bgp: peer AS %d, want %d", peerASN, p.cfg.PeerAS)
	}
	hold := p.cfg.HoldTime
	if ph := time.Duration(peerOpen.HoldTime) * time.Second; ph < hold {
		hold = ph
	}
	if hold != 0 && hold < time.Second {
		_ = p.Notify(NotifOpenError, OpenBadHoldTime)
		return fmt.Errorf("bgp: negotiated hold time %v too small", hold)
	}
	codec := &CodecOptions{AS4: peerOpen.HasCapability(CapFourOctetAS)}
	p.mu.Lock()
	p.codec = *codec
	p.peerASN = peerASN
	p.mu.Unlock()

	// --- OpenConfirm ---
	// The KEEPALIVE exchange is symmetric like the OPEN exchange, so
	// the same async-write pattern applies.
	p.state.Store(int32(StateOpenConfirm))
	go func() { sendErr <- p.send(&Keepalive{}) }()
	m, err = readOne(codec, hold)
	if err != nil {
		conn.Close()
		<-sendErr
		return fmt.Errorf("bgp: await KEEPALIVE: %w", err)
	}
	if err := <-sendErr; err != nil {
		return fmt.Errorf("bgp: send KEEPALIVE: %w", err)
	}
	switch m := m.(type) {
	case *Keepalive:
	case *Notification:
		return m
	default:
		_ = p.Notify(NotifFSMError, 0)
		return fmt.Errorf("bgp: expected KEEPALIVE, got %v", m.MsgType())
	}

	// --- Established ---
	// State first, so the handler (and what it starts) can already send;
	// waiters are released only once the handler has returned.
	p.state.Store(int32(StateEstablished))
	if p.cfg.Handler != nil {
		p.cfg.Handler.HandleEstablished(p, peerOpen)
	}
	p.mu.Lock()
	est := p.estCh
	p.mu.Unlock()
	close(est)
	p.logf("session %s established (AS%d, hold %v)", p.cfg.PeerAddr, peerASN, hold)

	// Persistent reader: delivers messages (or the terminating error)
	// to the established loop. The codec and hold time are final here,
	// so there is no mid-session codec handoff.
	type readResult struct {
		msg Message
		err error
	}
	msgCh := make(chan readResult)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			m, err := readOne(codec, hold)
			r := readResult{msg: m, err: err}
			select {
			case msgCh <- r:
				if err != nil {
					return
				}
			case <-done:
				return
			}
		}
	}()

	// Keepalive timer at hold/3 (RFC-recommended ratio).
	var kaCh <-chan time.Time
	if hold > 0 {
		ka := time.NewTicker(hold / 3)
		kaCh = ka.C
		defer ka.Stop()
	}

	for {
		select {
		case <-ctx.Done():
			_ = p.Notify(NotifCease, CeaseAdminShutdown)
			return ctx.Err()
		case <-kaCh:
			if err := p.send(&Keepalive{}); err != nil {
				return fmt.Errorf("bgp: send KEEPALIVE: %w", err)
			}
		case r := <-msgCh:
			if r.err != nil {
				return r.err
			}
			switch m := r.msg.(type) {
			case *Keepalive:
				// Hold timer refreshed by the reader deadline.
			case *Update:
				p.updatesIn.Add(1)
				if p.cfg.Handler != nil {
					p.cfg.Handler.HandleUpdate(p, m)
				}
			case *Notification:
				return m
			case *Open:
				_ = p.Notify(NotifFSMError, 0)
				return errors.New("bgp: OPEN in established state")
			}
		}
	}
}

var errHoldExpired = errors.New("hold timer expired")
