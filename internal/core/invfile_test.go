package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

func testInventoryFile(t *testing.T) (*InventoryFile, *Inventory) {
	inv := testInventory(t)
	return &InventoryFile{
		PoP:     "sea",
		LocalAS: 64500,
		Routers: []RouterEndpoints{
			{Name: "pr1", Addr: "10.255.0.1", BMP: "127.0.0.1:11019", Inject: "127.0.0.1:11179", SFlowAgent: "10.255.1.1"},
			{Name: "pr2", Addr: "10.255.0.2"},
		},
		Peers:      inv.Peers(),
		Interfaces: inv.Interfaces(),
	}, inv
}

// TestInventoryFileRoundTrip: what popsim writes, edgefabricd reads back
// into the same inventory NewInventory builds from the records.
func TestInventoryFileRoundTrip(t *testing.T) {
	f, want := testInventoryFile(t)
	path := filepath.Join(t.TempDir(), "inv.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadInventoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("loaded %+v, wrote %+v", got, f)
	}
	inv, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(inv.Peers(), want.Peers()) {
		t.Errorf("peers %+v, want %+v", inv.Peers(), want.Peers())
	}
	if !slices.Equal(inv.Interfaces(), want.Interfaces()) {
		t.Errorf("interfaces %+v, want %+v", inv.Interfaces(), want.Interfaces())
	}
}

// TestInventoryFileRejects: a file edgefabricd cannot trust fails to load
// or to build, never yields an inventory.
func TestInventoryFileRejects(t *testing.T) {
	for _, tc := range []struct {
		name     string
		edit     func(f *InventoryFile)
		from, to string // a textual edit of the encoded file
	}{
		{name: "bad address", from: `"172.20.0.1"`, to: `"172.20.0.300"`},
		{name: "missing address", from: `"172.20.0.1"`, to: `""`},
		{name: "unknown field", from: `"pop"`, to: `"site"`},
		{name: "duplicate peer", edit: func(f *InventoryFile) { f.Peers = append(f.Peers, f.Peers[0]) }},
		{name: "unknown interface", edit: func(f *InventoryFile) { f.Peers[1].InterfaceID = 9 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, _ := testInventoryFile(t)
			if tc.edit != nil {
				tc.edit(f)
			}
			var buf bytes.Buffer
			if err := f.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			raw := bytes.Replace(buf.Bytes(), []byte(tc.from), []byte(tc.to), 1)
			path := filepath.Join(t.TempDir(), "inv.json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadInventoryFile(path)
			if err == nil {
				_, err = loaded.Build()
			}
			if err == nil {
				t.Fatal("accepted")
			}
			t.Log(err)
		})
	}
}
