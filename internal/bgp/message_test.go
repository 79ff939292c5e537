package bgp

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"edgefabric/internal/wire"
)

func roundTrip(t *testing.T, m Message, opts *CodecOptions) Message {
	t.Helper()
	b, err := MarshalBytes(m, opts)
	if err != nil {
		t.Fatalf("MarshalBytes: %v", err)
	}
	got, err := Decode(b, opts)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestOpenRoundTrip(t *testing.T) {
	o := NewOpen(4200000001, 90, netip.MustParseAddr("10.0.0.1"))
	got := roundTrip(t, o, nil).(*Open)
	if got.Version != 4 || got.AS != ASTrans || got.HoldTime != 90 {
		t.Errorf("fields = %+v", got)
	}
	if got.RouterID != o.RouterID {
		t.Errorf("RouterID = %v", got.RouterID)
	}
	if got.FourOctetAS() != 4200000001 {
		t.Errorf("FourOctetAS = %d", got.FourOctetAS())
	}
	if !got.HasCapability(CapMultiprotocol) || !got.HasCapability(CapFourOctetAS) {
		t.Error("missing capabilities after round trip")
	}
	if got.HasCapability(CapRouteRefresh) {
		t.Error("unexpected capability")
	}
}

func TestOpenSmallASN(t *testing.T) {
	o := NewOpen(65001, 30, netip.MustParseAddr("1.2.3.4"))
	if o.AS != 65001 {
		t.Errorf("AS = %d", o.AS)
	}
	got := roundTrip(t, o, nil).(*Open)
	if got.FourOctetAS() != 65001 {
		t.Errorf("FourOctetAS = %d", got.FourOctetAS())
	}
}

func TestOpenNoCapabilities(t *testing.T) {
	o := &Open{Version: 4, AS: 65001, HoldTime: 90, RouterID: netip.MustParseAddr("1.1.1.1")}
	got := roundTrip(t, o, nil).(*Open)
	if len(got.Capabilities) != 0 {
		t.Errorf("Capabilities = %v", got.Capabilities)
	}
	if got.FourOctetAS() != 65001 {
		t.Errorf("FourOctetAS fallback = %d", got.FourOctetAS())
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	b, err := MarshalBytes(&Keepalive{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != HeaderLen {
		t.Errorf("KEEPALIVE length = %d, want %d", len(b), HeaderLen)
	}
	if _, err := Decode(b, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{Code: NotifCease, Subcode: CeaseAdminShutdown, Data: []byte("bye")}
	got := roundTrip(t, n, nil).(*Notification)
	if got.Code != NotifCease || got.Subcode != CeaseAdminShutdown || string(got.Data) != "bye" {
		t.Errorf("got %+v", got)
	}
	if got.Error() == "" {
		t.Error("Error() empty")
	}
}

func v4Update() *Update {
	return &Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.9.0.0/16")},
		Attrs: PathAttrs{
			Origin:    0,
			HasOrigin: true,
			ASPath:    Sequence(65001, 4200000002, 65003),
			NextHop:   netip.MustParseAddr("192.0.2.1"),
			MED:       50, HasMED: true,
			LocalPref: 400, HasLocalPref: true,
			Communities: []uint32{65001<<16 | 42},
		},
		NLRI: []netip.Prefix{
			netip.MustParsePrefix("10.1.0.0/24"),
			netip.MustParsePrefix("10.2.0.0/17"),
			netip.MustParsePrefix("0.0.0.0/0"),
		},
	}
}

func TestUpdateRoundTripAS4(t *testing.T) {
	u := v4Update()
	got := roundTrip(t, u, &CodecOptions{AS4: true}).(*Update)
	if !reflect.DeepEqual(got, u) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, u)
	}
}

func TestUpdateRoundTripAS2(t *testing.T) {
	u := v4Update()
	got := roundTrip(t, u, &CodecOptions{AS4: false}).(*Update)
	// The 4-octet ASN degrades to AS_TRANS in 2-octet mode.
	wantPath := []uint32{65001, uint32(ASTrans), 65003}
	if !reflect.DeepEqual(got.Attrs.FlatASPath(), wantPath) {
		t.Errorf("AS2 path = %v, want %v", got.Attrs.FlatASPath(), wantPath)
	}
}

func TestUpdateIPv6MPReach(t *testing.T) {
	u := &Update{
		Attrs: PathAttrs{
			HasOrigin: true,
			ASPath:    Sequence(65001),
			MPReach: &MPReach{
				AFI: AFIIPv6, SAFI: SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI: []netip.Prefix{
					netip.MustParsePrefix("2001:db8:1::/48"),
					netip.MustParsePrefix("::/0"),
				},
			},
			MPUnreach: &MPUnreach{
				AFI: AFIIPv6, SAFI: SAFIUnicast,
				Withdrawn: []netip.Prefix{netip.MustParsePrefix("2001:db8:2::/64")},
			},
		},
	}
	got := roundTrip(t, u, nil).(*Update)
	if !reflect.DeepEqual(got, u) {
		t.Errorf("v6 round trip mismatch:\n got %+v\nwant %+v", got, u)
	}
}

func TestUpdateEmptyIsEndOfRIB(t *testing.T) {
	got := roundTrip(t, &Update{}, nil).(*Update)
	if len(got.NLRI) != 0 || len(got.Withdrawn) != 0 || got.Attrs.HasOrigin {
		t.Errorf("EoR round trip = %+v", got)
	}
}

func TestUpdateRejectsV6InClassicFields(t *testing.T) {
	u := &Update{NLRI: []netip.Prefix{netip.MustParsePrefix("2001:db8::/32")}}
	if _, err := MarshalBytes(u, nil); err == nil {
		t.Error("expected error for v6 prefix in classic NLRI")
	}
	u = &Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("2001:db8::/32")}}
	if _, err := MarshalBytes(u, nil); err == nil {
		t.Error("expected error for v6 prefix in classic withdrawn")
	}
}

func TestUnknownAttrPreserved(t *testing.T) {
	u := &Update{
		Attrs: PathAttrs{
			HasOrigin: true,
			ASPath:    Sequence(65001),
			NextHop:   netip.MustParseAddr("192.0.2.1"),
			Unknown: []RawAttr{{
				Flags: flagOptional | flagTransitive,
				Type:  99,
				Data:  []byte{1, 2, 3},
			}},
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	got := roundTrip(t, u, nil).(*Update)
	if !reflect.DeepEqual(got.Attrs.Unknown, u.Attrs.Unknown) {
		t.Errorf("unknown attr not preserved: %+v", got.Attrs.Unknown)
	}
}

func TestExtendedLengthAttr(t *testing.T) {
	// Enough communities to exceed 255 bytes forces extended length.
	attrs := PathAttrs{HasOrigin: true, ASPath: Sequence(65001), NextHop: netip.MustParseAddr("192.0.2.1")}
	for i := uint32(0); i < 100; i++ {
		attrs.Communities = append(attrs.Communities, i)
	}
	u := &Update{Attrs: attrs, NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
	got := roundTrip(t, u, nil).(*Update)
	if !reflect.DeepEqual(got.Attrs.Communities, attrs.Communities) {
		t.Error("communities mismatch with extended length")
	}
	// The body is written before its length is known: the back-patched
	// header must carry the extended-length flag and a two-byte 400.
	b, err := MarshalBytes(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(b, []byte{flagOptional | flagTransitive | flagExtLen, attrCommunities, 400 >> 8, 400 & 0xFF, 0, 0, 0, 0})
	if at < 0 {
		t.Fatalf("no extended-length COMMUNITIES header of 400 bytes in % x", b)
	}
}

// TestMarshalUpdateReusedWriterAllocs: an UPDATE with an AS path, four
// communities and MP_REACH marshals into a reused writer without
// allocating; attribute bodies go straight into the caller's buffer.
func TestMarshalUpdateReusedWriterAllocs(t *testing.T) {
	u := &Update{Attrs: PathAttrs{
		HasOrigin: true, ASPath: Sequence(64601, 65010, 4200000001),
		LocalPref: 100, HasLocalPref: true,
		Communities: []uint32{1, 2, 3, 4},
		MPReach: &MPReach{
			AFI: AFIIPv6, SAFI: SAFIUnicast, NextHop: netip.MustParseAddr("2001:db8::1"),
			NLRI: []netip.Prefix{netip.MustParsePrefix("2001:db8:1::/48"), netip.MustParsePrefix("2001:db8:2::/48")},
		},
	}}
	w := wire.NewWriter(512)
	allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		if err := Marshal(w, u, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Marshal into a reused writer: %.1f allocs, want 0", allocs)
	}
	if got := roundTrip(t, u, nil).(*Update); !reflect.DeepEqual(got, u) {
		t.Errorf("round trip: got %+v", got)
	}
}

func TestDecodeBadMarker(t *testing.T) {
	b, _ := MarshalBytes(&Keepalive{}, nil)
	b[0] = 0
	if _, err := Decode(b, nil); !errors.Is(err, ErrBadMarker) {
		t.Errorf("err = %v, want ErrBadMarker", err)
	}
}

func TestDecodeBadLength(t *testing.T) {
	b, _ := MarshalBytes(&Keepalive{}, nil)
	b[17] = 200 // header length no longer matches slice
	if _, err := Decode(b, nil); !errors.Is(err, ErrBadLength) {
		t.Errorf("err = %v, want ErrBadLength", err)
	}
	if _, err := Decode(b[:5], nil); !errors.Is(err, ErrBadLength) {
		t.Errorf("short slice err = %v, want ErrBadLength", err)
	}
}

func TestDecodeBadType(t *testing.T) {
	b, _ := MarshalBytes(&Keepalive{}, nil)
	b[18] = 77
	if _, err := Decode(b, nil); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType", err)
	}
}

func TestDecodeKeepaliveWithBody(t *testing.T) {
	w := wire.NewWriter(32)
	_ = Marshal(w, &Keepalive{}, nil)
	b := append(w.Take(), 0xAA) // junk body byte
	b[17] = byte(len(b))
	if _, err := Decode(b, nil); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v, want ErrBadMessage", err)
	}
}

func TestDecodeTruncatedUpdate(t *testing.T) {
	u := v4Update()
	b, _ := MarshalBytes(u, nil)
	for cut := HeaderLen + 1; cut < len(b)-1; cut += 3 {
		trunc := append([]byte(nil), b[:cut]...)
		trunc[16] = byte(cut >> 8)
		trunc[17] = byte(cut)
		if _, err := Decode(trunc, nil); err == nil {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
}

func TestReadMessageStream(t *testing.T) {
	var stream bytes.Buffer
	msgs := []Message{
		NewOpen(65001, 90, netip.MustParseAddr("1.1.1.1")),
		&Keepalive{},
		v4Update(),
		&Notification{Code: NotifCease, Subcode: 2},
	}
	for _, m := range msgs {
		b, err := MarshalBytes(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(b)
	}
	buf := make([]byte, MaxMessageLen)
	for i, want := range msgs {
		got, err := ReadMessage(&stream, buf, nil)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.MsgType() != want.MsgType() {
			t.Errorf("message %d type = %v, want %v", i, got.MsgType(), want.MsgType())
		}
	}
	if _, err := ReadMessage(&stream, buf, nil); err == nil {
		t.Error("expected EOF at stream end")
	}
}

func TestReadMessageSmallBuffer(t *testing.T) {
	if _, err := ReadMessage(&bytes.Buffer{}, make([]byte, 10), nil); err == nil {
		t.Error("expected error for small buffer")
	}
}

func TestPathHopCount(t *testing.T) {
	a := PathAttrs{ASPath: []PathSegment{
		{Type: SegSequence, ASNs: []uint32{1, 2, 3}},
		{Type: SegSet, ASNs: []uint32{4, 5}},
	}}
	if got := a.PathHopCount(); got != 4 {
		t.Errorf("PathHopCount = %d, want 4", got)
	}
	if got := len(a.FlatASPath()); got != 5 {
		t.Errorf("FlatASPath len = %d, want 5", got)
	}
}

// Property: prefix NLRI encoding round-trips for arbitrary v4 and v6
// prefixes.
func TestQuickPrefixRoundTrip(t *testing.T) {
	f := func(a4 [4]byte, bits4 uint8, a16 [16]byte, bits6 uint8) bool {
		p4, err := netip.AddrFrom4(a4).Prefix(int(bits4) % 33)
		if err != nil {
			return false
		}
		p6, err := netip.AddrFrom16(a16).Prefix(int(bits6) % 129)
		if err != nil {
			return false
		}
		w := wire.NewWriter(64)
		encodePrefix(w, p4)
		got4, err := decodePrefixes(wire.NewReader(w.Bytes()), AFIIPv4, nil)
		if err != nil || len(got4) != 1 || got4[0] != p4 {
			return false
		}
		w.Reset()
		encodePrefix(w, p6)
		got6, err := decodePrefixes(wire.NewReader(w.Bytes()), AFIIPv6, nil)
		return err == nil && len(got6) == 1 && got6[0] == p6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestQuickDecodeNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b, nil)
		if len(b) > HeaderLen {
			_, _ = decodeBody(TypeUpdate, b[HeaderLen:], nil)
			_, _ = decodeBody(TypeOpen, b[HeaderLen:], nil)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: UPDATE round-trips for generated prefix sets.
func TestQuickUpdateRoundTrip(t *testing.T) {
	f := func(seeds []uint32, med uint32, lp uint32) bool {
		if len(seeds) > 60 {
			seeds = seeds[:60]
		}
		u := &Update{
			Attrs: PathAttrs{
				HasOrigin: true,
				ASPath:    Sequence(65001, 65002),
				NextHop:   netip.MustParseAddr("192.0.2.1"),
				MED:       med, HasMED: true,
				LocalPref: lp, HasLocalPref: true,
			},
		}
		for _, s := range seeds {
			addr := netip.AddrFrom4([4]byte{10, byte(s >> 16), byte(s >> 8), byte(s)})
			bits := 8 + int(s%25)
			p, err := addr.Prefix(bits)
			if err != nil {
				return false
			}
			u.NLRI = append(u.NLRI, p)
		}
		b, err := MarshalBytes(u, nil)
		if err != nil {
			return false
		}
		got, err := Decode(b, nil)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpdateEncode(b *testing.B) {
	u := v4Update()
	w := wire.NewWriter(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := Marshal(w, u, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateDecode(b *testing.B) {
	buf, err := MarshalBytes(v4Update(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}
