package bgp

import (
	"fmt"
	"net/netip"

	"edgefabric/internal/wire"
)

// Path attribute type codes (RFC 4271 §5, RFC 1997, RFC 4760).
const (
	attrOrigin          uint8 = 1
	attrASPath          uint8 = 2
	attrNextHop         uint8 = 3
	attrMED             uint8 = 4
	attrLocalPref       uint8 = 5
	attrAtomicAggregate uint8 = 6
	attrAggregator      uint8 = 7
	attrCommunities     uint8 = 8
	attrMPReach         uint8 = 14
	attrMPUnreach       uint8 = 15
)

// Attribute flag bits.
const (
	flagOptional   uint8 = 0x80
	flagTransitive uint8 = 0x40
	flagPartial    uint8 = 0x20
	flagExtLen     uint8 = 0x10
)

// AS_PATH segment types.
const (
	// SegSet is an unordered AS_SET segment.
	SegSet uint8 = 1
	// SegSequence is an ordered AS_SEQUENCE segment.
	SegSequence uint8 = 2
)

// PathSegment is one AS_PATH segment.
type PathSegment struct {
	// Type is SegSet or SegSequence.
	Type uint8
	// ASNs are the segment members.
	ASNs []uint32
}

// MPReach is the MP_REACH_NLRI attribute (RFC 4760), used here for IPv6
// unicast announcements.
type MPReach struct {
	AFI     uint16
	SAFI    uint8
	NextHop netip.Addr
	NLRI    []netip.Prefix
}

// MPUnreach is the MP_UNREACH_NLRI attribute, used for IPv6 withdrawals.
type MPUnreach struct {
	AFI       uint16
	SAFI      uint8
	Withdrawn []netip.Prefix
}

// RawAttr preserves an attribute this codec does not interpret, so
// transitive attributes survive re-encoding.
type RawAttr struct {
	Flags uint8
	Type  uint8
	Data  []byte
}

// PathAttrs is the decoded attribute set of an UPDATE.
type PathAttrs struct {
	// Origin with HasOrigin presence flag.
	Origin    uint8
	HasOrigin bool
	// ASPath segments in wire order.
	ASPath []PathSegment
	// NextHop is the IPv4 NEXT_HOP attribute (IPv6 travels in MPReach).
	NextHop netip.Addr
	// MED / LocalPref with presence flags.
	MED          uint32
	HasMED       bool
	LocalPref    uint32
	HasLocalPref bool
	// AtomicAggregate presence.
	AtomicAggregate bool
	// Communities carries RFC 1997 standard communities.
	Communities []uint32
	// MPReach / MPUnreach for non-IPv4 families.
	MPReach   *MPReach
	MPUnreach *MPUnreach
	// Unknown holds unrecognized attributes verbatim.
	Unknown []RawAttr
}

// FlatASPath flattens the AS_PATH into a single sequence. AS_SET members
// are appended in wire order; for path-length comparison BGP counts an
// AS_SET as one hop, which callers needing that semantic get from
// PathHopCount.
func (a *PathAttrs) FlatASPath() []uint32 {
	var out []uint32
	for _, seg := range a.ASPath {
		out = append(out, seg.ASNs...)
	}
	return out
}

// PathHopCount reports the decision-process length of the AS_PATH: each
// AS_SEQUENCE member counts 1, each AS_SET counts 1 total (RFC 4271
// §9.1.2.2a).
func (a *PathAttrs) PathHopCount() int {
	n := 0
	for _, seg := range a.ASPath {
		if seg.Type == SegSet {
			n++
		} else {
			n += len(seg.ASNs)
		}
	}
	return n
}

// Sequence returns a PathAttrs AS_PATH holding a single AS_SEQUENCE.
func Sequence(asns ...uint32) []PathSegment {
	if len(asns) == 0 {
		return nil
	}
	return []PathSegment{{Type: SegSequence, ASNs: asns}}
}

// Update is the BGP UPDATE message. IPv4 reachability travels in the
// classic Withdrawn/NLRI fields; IPv6 travels in Attrs.MPReach /
// Attrs.MPUnreach.
type Update struct {
	Withdrawn []netip.Prefix
	Attrs     PathAttrs
	NLRI      []netip.Prefix
}

// MsgType implements Message.
func (*Update) MsgType() MessageType { return TypeUpdate }

func (u *Update) encodeBody(w *wire.Writer, opts *CodecOptions) error {
	// Withdrawn routes.
	wh := w.Hole16()
	for _, p := range u.Withdrawn {
		if !p.Addr().Is4() {
			return fmt.Errorf("%w: IPv6 prefix %s in classic withdrawn field", ErrBadMessage, p)
		}
		encodePrefix(w, p)
	}
	wh.Fill(w)
	// Path attributes.
	ah := w.Hole16()
	if err := u.Attrs.encode(w, opts); err != nil {
		return err
	}
	ah.Fill(w)
	// NLRI.
	for _, p := range u.NLRI {
		if !p.Addr().Is4() {
			return fmt.Errorf("%w: IPv6 prefix %s in classic NLRI field", ErrBadMessage, p)
		}
		encodePrefix(w, p)
	}
	return nil
}

func decodeUpdate(body []byte, opts *CodecOptions) (*Update, error) {
	r := wire.NewReader(body)
	u := &Update{}
	var err error
	wlen := int(r.Uint16())
	wr := r.Sub(wlen)
	u.Withdrawn, err = decodePrefixes(wr, AFIIPv4, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: withdrawn: %v", ErrBadMessage, err)
	}
	alen := int(r.Uint16())
	ar := r.Sub(alen)
	if err := u.Attrs.decode(ar, opts); err != nil {
		return nil, err
	}
	u.NLRI, err = decodePrefixes(r.Sub(r.Len()), AFIIPv4, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: nlri: %v", ErrBadMessage, err)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: update: %v", ErrBadMessage, err)
	}
	return u, nil
}

func (a *PathAttrs) encode(w *wire.Writer, opts *CodecOptions) error {
	if a.HasOrigin {
		encodeAttrHeader(w, flagTransitive, attrOrigin, 1)
		w.Uint8(a.Origin)
	}
	if len(a.ASPath) > 0 || a.HasOrigin { // AS_PATH is mandatory with NLRI
		at := beginAttr(w, flagTransitive, attrASPath)
		for _, seg := range a.ASPath {
			if len(seg.ASNs) > 255 {
				return fmt.Errorf("%w: AS_PATH segment too long", ErrBadMessage)
			}
			w.Uint8(seg.Type)
			w.Uint8(uint8(len(seg.ASNs)))
			for _, asn := range seg.ASNs {
				if opts.AS4 {
					w.Uint32(asn)
				} else {
					if asn > 0xFFFF {
						w.Uint16(ASTrans)
					} else {
						w.Uint16(uint16(asn))
					}
				}
			}
		}
		endAttr(w, at)
	}
	if a.NextHop.Is4() {
		encodeAttrHeader(w, flagTransitive, attrNextHop, 4)
		nh := a.NextHop.As4()
		w.Bytes2(nh[:])
	}
	if a.HasMED {
		encodeAttrHeader(w, flagOptional, attrMED, 4)
		w.Uint32(a.MED)
	}
	if a.HasLocalPref {
		encodeAttrHeader(w, flagTransitive, attrLocalPref, 4)
		w.Uint32(a.LocalPref)
	}
	if a.AtomicAggregate {
		encodeAttrHeader(w, flagTransitive, attrAtomicAggregate, 0)
	}
	if len(a.Communities) > 0 {
		at := beginAttr(w, flagOptional|flagTransitive, attrCommunities)
		for _, c := range a.Communities {
			w.Uint32(c)
		}
		endAttr(w, at)
	}
	if a.MPReach != nil {
		at := beginAttr(w, flagOptional, attrMPReach)
		w.Uint16(a.MPReach.AFI)
		w.Uint8(a.MPReach.SAFI)
		nh := a.MPReach.NextHop.As16()
		w.Uint8(16)
		w.Bytes2(nh[:])
		w.Uint8(0) // reserved (SNPA count)
		for _, p := range a.MPReach.NLRI {
			encodePrefix(w, p)
		}
		endAttr(w, at)
	}
	if a.MPUnreach != nil {
		at := beginAttr(w, flagOptional, attrMPUnreach)
		w.Uint16(a.MPUnreach.AFI)
		w.Uint8(a.MPUnreach.SAFI)
		for _, p := range a.MPUnreach.Withdrawn {
			encodePrefix(w, p)
		}
		endAttr(w, at)
	}
	for _, raw := range a.Unknown {
		encodeAttrWithBody(w, raw.Flags, raw.Type, raw.Data)
	}
	return nil
}

// encodeAttrHeader writes a short-form attribute header for a fixed,
// known body length (< 256).
func encodeAttrHeader(w *wire.Writer, flags, typ uint8, bodyLen int) {
	w.Uint8(flags &^ flagExtLen)
	w.Uint8(typ)
	w.Uint8(uint8(bodyLen))
}

// encodeAttrWithBody writes an attribute choosing extended length as
// needed.
func encodeAttrWithBody(w *wire.Writer, flags, typ uint8, body []byte) {
	at := beginAttr(w, flags, typ)
	w.Bytes2(body)
	endAttr(w, at)
}

// beginAttr writes a short-form attribute header whose length byte is
// patched by endAttr once the body is written straight into w; it
// returns the header's offset.
func beginAttr(w *wire.Writer, flags, typ uint8) int {
	at := w.Len()
	w.Uint8(flags &^ flagExtLen)
	w.Uint8(typ)
	w.Uint8(0)
	return at
}

// endAttr back-patches the length of the attribute begun at at. A body
// over 255 bytes takes the extended-length form: the body shifts one
// byte right to make room for the two-byte length.
func endAttr(w *wire.Writer, at int) {
	n := w.Len() - at - 3
	if n <= 255 {
		w.Bytes()[at+2] = byte(n)
		return
	}
	w.Uint8(0)
	b := w.Bytes()
	copy(b[at+4:], b[at+3:len(b)-1])
	b[at] |= flagExtLen
	b[at+2], b[at+3] = byte(n>>8), byte(n)
}

func (a *PathAttrs) decode(r *wire.Reader, opts *CodecOptions) error {
	for r.Err() == nil && r.Len() > 0 {
		flags := r.Uint8()
		typ := r.Uint8()
		var alen int
		if flags&flagExtLen != 0 {
			alen = int(r.Uint16())
		} else {
			alen = int(r.Uint8())
		}
		ar := r.Sub(alen)
		if r.Err() != nil {
			break
		}
		switch typ {
		case attrOrigin:
			a.Origin = ar.Uint8()
			a.HasOrigin = true
		case attrASPath:
			for ar.Err() == nil && ar.Len() > 0 {
				seg := PathSegment{Type: ar.Uint8()}
				n := int(ar.Uint8())
				for i := 0; i < n; i++ {
					if opts.AS4 {
						seg.ASNs = append(seg.ASNs, ar.Uint32())
					} else {
						seg.ASNs = append(seg.ASNs, uint32(ar.Uint16()))
					}
				}
				if ar.Err() == nil {
					a.ASPath = append(a.ASPath, seg)
				}
			}
		case attrNextHop:
			var nh [4]byte
			copy(nh[:], ar.Bytes(4))
			a.NextHop = netip.AddrFrom4(nh)
		case attrMED:
			a.MED = ar.Uint32()
			a.HasMED = true
		case attrLocalPref:
			a.LocalPref = ar.Uint32()
			a.HasLocalPref = true
		case attrAtomicAggregate:
			a.AtomicAggregate = true
		case attrCommunities:
			for ar.Err() == nil && ar.Len() >= 4 {
				a.Communities = append(a.Communities, ar.Uint32())
			}
		case attrMPReach:
			mp := &MPReach{}
			mp.AFI = ar.Uint16()
			mp.SAFI = ar.Uint8()
			nhLen := int(ar.Uint8())
			nhb := ar.Bytes(nhLen)
			if len(nhb) == 16 || len(nhb) == 32 { // 32: global+link-local
				var b [16]byte
				copy(b[:], nhb[:16])
				mp.NextHop = netip.AddrFrom16(b)
			} else if len(nhb) == 4 {
				var b [4]byte
				copy(b[:], nhb)
				mp.NextHop = netip.AddrFrom4(b)
			}
			ar.Skip(1) // reserved
			nlri, err := decodePrefixes(ar, mp.AFI, nil)
			if err != nil {
				return fmt.Errorf("%w: mp_reach: %v", ErrBadMessage, err)
			}
			mp.NLRI = nlri
			a.MPReach = mp
		case attrMPUnreach:
			mp := &MPUnreach{}
			mp.AFI = ar.Uint16()
			mp.SAFI = ar.Uint8()
			wd, err := decodePrefixes(ar, mp.AFI, nil)
			if err != nil {
				return fmt.Errorf("%w: mp_unreach: %v", ErrBadMessage, err)
			}
			mp.Withdrawn = wd
			a.MPUnreach = mp
		default:
			a.Unknown = append(a.Unknown, RawAttr{
				Flags: flags, Type: typ,
				Data: append([]byte(nil), ar.Bytes(ar.Len())...),
			})
		}
		if err := ar.Err(); err != nil {
			return fmt.Errorf("%w: attribute %d: %v", ErrBadMessage, typ, err)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: attributes: %v", ErrBadMessage, err)
	}
	return nil
}

// encodePrefix writes a prefix in BGP NLRI form: one length byte (bits)
// followed by ceil(bits/8) address bytes.
func encodePrefix(w *wire.Writer, p netip.Prefix) {
	p = p.Masked()
	bits := p.Bits()
	w.Uint8(uint8(bits))
	nbytes := (bits + 7) / 8
	if p.Addr().Is4() {
		a := p.Addr().As4()
		w.Bytes2(a[:nbytes])
	} else {
		a := p.Addr().As16()
		w.Bytes2(a[:nbytes])
	}
}

// decodePrefixes reads NLRI-form prefixes until r is exhausted,
// appending to dst.
func decodePrefixes(r *wire.Reader, afi uint16, dst []netip.Prefix) ([]netip.Prefix, error) {
	maxBits := 32
	if afi == AFIIPv6 {
		maxBits = 128
	}
	for r.Err() == nil && r.Len() > 0 {
		bits := int(r.Uint8())
		if bits > maxBits {
			return dst, fmt.Errorf("prefix length %d exceeds %d", bits, maxBits)
		}
		nbytes := (bits + 7) / 8
		b := r.Bytes(nbytes)
		if b == nil {
			break
		}
		var addr netip.Addr
		if afi == AFIIPv6 {
			var a [16]byte
			copy(a[:], b)
			addr = netip.AddrFrom16(a)
		} else {
			var a [4]byte
			copy(a[:], b)
			addr = netip.AddrFrom4(a)
		}
		p, err := addr.Prefix(bits)
		if err != nil {
			return dst, err
		}
		dst = append(dst, p)
	}
	if err := r.Err(); err != nil {
		return dst, err
	}
	return dst, nil
}
