package sflow

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
)

// refDecode is an independent reading of the datagram layout, written
// from the format rather than from stream.go: version 5; agent address
// (type 1 + 4 bytes or type 2 + 16 bytes); sub-agent, sequence, uptime
// and sample count words; then per sample a type word and a length-
// delimited body, of which only type 1 is parsed (sequence, sampling
// rate, pool, record count, then type/length-delimited records, of
// which only type 1 is parsed: address, frame length, egress
// interface). Unknown types and bytes past what a body declares are
// skipped. ok is false exactly when the datagram is malformed.
func refDecode(b []byte) (d *Datagram, ok bool) {
	if len(b) > MaxDatagramLen {
		return nil, false
	}
	bad := false
	word := func(p *[]byte) uint32 {
		if len(*p) < 4 {
			bad = true
			return 0
		}
		v := binary.BigEndian.Uint32(*p)
		*p = (*p)[4:]
		return v
	}
	take := func(p *[]byte, n uint32) []byte {
		if bad || uint64(n) > uint64(len(*p)) {
			bad = true
			return nil
		}
		v := (*p)[:n]
		*p = (*p)[n:]
		return v
	}
	addr := func(p *[]byte) netip.Addr {
		switch word(p) {
		case 1:
			if v := take(p, 4); !bad {
				return netip.AddrFrom4([4]byte(v))
			}
		case 2:
			if v := take(p, 16); !bad {
				return netip.AddrFrom16([16]byte(v))
			}
		default:
			bad = true
		}
		return netip.Addr{}
	}
	if word(&b) != Version || bad {
		return nil, false
	}
	d = &Datagram{Agent: addr(&b)}
	d.SubAgent, d.Seq, d.UptimeMS = word(&b), word(&b), word(&b)
	n := word(&b)
	if bad || n > MaxDatagramLen/24 {
		return nil, false
	}
	for ; n > 0; n-- {
		typ := word(&b)
		body := take(&b, word(&b))
		if bad {
			return nil, false
		}
		if typ != 1 {
			continue
		}
		s := FlowSample{Seq: word(&body), SamplingRate: word(&body), SamplePool: word(&body)}
		nrec := word(&body)
		if bad || nrec > MaxDatagramLen/16 {
			return nil, false
		}
		for ; nrec > 0; nrec-- {
			rtyp := word(&body)
			rec := take(&body, word(&body))
			if bad {
				return nil, false
			}
			if rtyp != 1 {
				continue
			}
			r := FlowRecord{Dst: addr(&rec), FrameLen: word(&rec), EgressIF: word(&rec)}
			if bad {
				return nil, false
			}
			s.Records = append(s.Records, r)
		}
		d.Samples = append(d.Samples, s)
	}
	return d, true
}

// FuzzDecode drives the sFlow decoders with arbitrary bytes: no panics,
// the decoder agrees with the reference walk above (same accept/reject
// outcome, same datagram), every record reaches DecodeStream's callback
// with its sample's sampling rate, PeekAgent reads the same agent, and
// decoded datagrams round-trip exactly.
func FuzzDecode(f *testing.F) {
	b, err := MarshalBytes(testDatagram())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		want, ok := refDecode(data)
		if (err == nil) != ok {
			t.Fatalf("Decode err=%v, reference accepts=%v", err, ok)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(d, want) {
			t.Fatalf("Decode and reference disagree:\ndecode    %+v\nreference %+v", d, want)
		}

		var rate uint32
		if _, err := DecodeStream(data,
			func(sh SampleHeader) { rate = sh.SamplingRate },
			func(_ FlowRecord, r uint32) {
				if r != rate {
					t.Fatalf("record got sampling rate %d, sample has %d", r, rate)
				}
			},
		); err != nil {
			t.Fatalf("DecodeStream rejects what Decode accepted: %v", err)
		}
		if a, perr := PeekAgent(data); perr != nil || a != d.Agent {
			t.Fatalf("PeekAgent = %v, %v; want %v", a, perr, d.Agent)
		}

		re, err := MarshalBytes(d)
		if err != nil {
			t.Fatalf("decoded datagram fails to re-encode: %v", err)
		}
		d2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded datagram fails to decode: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatal("re-encode round trip not stable")
		}
	})
}
