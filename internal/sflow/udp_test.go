package sflow

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"
)

func TestUDPSinkToCollector(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(CollectorConfig{Mapper: fixedMapper{}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- col.ServeUDPConns(ctx, []net.PacketConn{conn}) }()

	sink, err := NewUDPSink(conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	b, err := MarshalBytes(testDatagram())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.SendDatagram(b); err != nil {
		t.Fatal(err)
	}
	// Malformed datagram: counted as dropped, not fatal.
	if err := sink.SendDatagram([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if d, m, _ := col.Stats(); d >= 1 && m >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d, m, _ := col.Stats(); d == 0 || m != 1 {
		t.Fatalf("over UDP: %d datagrams ingested (want >= 1), %d malformed (want 1)", d, m)
	}
	rates := col.Rates()
	if len(rates) == 0 {
		t.Error("no rates after UDP ingest")
	}
	p := netip.MustParsePrefix("198.51.100.0/24")
	if rates[p] == 0 {
		t.Errorf("rate for %s = 0", p)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeUDPConns after cancel = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ServeUDPConns did not return on cancel")
	}
}

func TestNewUDPSinkBadAddr(t *testing.T) {
	if _, err := NewUDPSink("not-an-addr:::"); err == nil {
		t.Error("expected resolve error")
	}
}

// TestBatchRoundTrip drives a burst through WriteBatch into a
// multi-reader pool (the recvmmsg path on Linux, the portable loop
// elsewhere) and checks every datagram arrives intact.
func TestBatchRoundTrip(t *testing.T) {
	conns, err := ListenUDP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(CollectorConfig{Mapper: fixedMapper{}, Readers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- col.ServeUDPConns(ctx, conns) }()

	raddr, err := net.Dial("udp", conns[0].LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raddr.Close()
	b, err := MarshalBytes(testDatagram())
	if err != nil {
		t.Fatal(err)
	}
	const total = 100
	pkts := make([][]byte, total)
	for i := range pkts {
		pkts[i] = b
	}
	// Larger than one recvmmsg burst, so the reader needs several calls.
	n, err := WriteBatch(raddr.(*net.UDPConn), pkts)
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("WriteBatch sent %d, want %d", n, total)
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if d, _, _ := col.Stats(); d >= total {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d, m, _ := col.Stats(); d != total || m != 0 {
		t.Fatalf("decoded %d (malformed %d), want %d clean", d, m, total)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeUDPConns after cancel = %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ServeUDPConns did not return on cancel")
	}
}

// TestWriteBatchEmptyPacket pins the zero-length send rejection.
func TestWriteBatchEmptyPacket(t *testing.T) {
	if !batchIOSupported {
		t.Skip("portable WriteBatch sends empty datagrams via conn.Write")
	}
	conn, err := net.Dial("udp", "127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := WriteBatch(conn.(*net.UDPConn), [][]byte{{1}, {}}); err == nil {
		t.Error("expected error for empty packet")
	}
}
