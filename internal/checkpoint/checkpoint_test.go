package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
)

// savedFile runs Algorithm 1 on a small graph, kills it at a barrier and
// returns the checkpoint the Keeper persisted, with its raw bytes.
func savedFile(t testing.TB) (path string, meta *Meta, raw []byte) {
	t.Helper()
	g := graph.Random(12, 36, graph.GenOpts{Seed: 5, MaxW: 6, ZeroFrac: 0.3})
	sources := []int{0, 4, 9}
	path = filepath.Join(t.TempDir(), "run.ckpt")
	meta = &Meta{Alg: "core", N: g.N(), M: g.M(), Graph: Fingerprint(g), Sources: sources, H: 5}
	k := &Keeper{Path: path, Meta: meta}
	pol := &congest.CheckpointPolicy{AtRound: 4, Stop: true, Sink: k.Sink}
	if _, err := core.Run(g, core.Opts{Sources: sources, H: 5, Engine: congest.Config{Checkpoint: pol}}); err == nil {
		t.Fatal("run survived its checkpoint-stop")
	}
	if snap, n := k.Latest(); snap == nil || n != 1 {
		t.Fatalf("keeper holds %v after %d saves", snap, n)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, meta, raw
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path, meta, raw := savedFile(t)
	gotMeta, snap, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Fatalf("meta %+v, want %+v", gotMeta, meta)
	}
	// Saving what was loaded reproduces the file byte for byte, and leaves
	// nothing but the file behind.
	again := filepath.Join(filepath.Dir(path), "again.ckpt")
	if err := Save(again, gotMeta, snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if b, _ := os.ReadFile(again); !bytes.Equal(b, raw) {
		t.Fatal("Save(Load(file)) differs from file")
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 2 {
		t.Fatalf("directory holds %d entries after two saves, want 2", len(entries))
	}
	g := graph.Random(12, 36, graph.GenOpts{Seed: 5, MaxW: 6, ZeroFrac: 0.3})
	if err := gotMeta.ValidateAgainst(g, meta.Sources, 5, "", congest.SchedulerActive); err != nil {
		t.Fatalf("ValidateAgainst the same run: %v", err)
	}
	if err := gotMeta.ValidateAgainst(g, meta.Sources, 6, "", congest.SchedulerActive); err == nil {
		t.Fatal("hop mismatch accepted")
	}
}

// v1File returns a committed version 1 checkpoint (unsealed: its length
// fields are all that stands between a corrupt file and a wrong resume).
func v1File(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "compat", "core-active.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLoadBadLengths corrupts the two length fields of a version 1 file.
// A body length with the top bit set used to go negative through int()
// and panic on r[:n].
func TestLoadBadLengths(t *testing.T) {
	raw := v1File(t)
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err != nil {
		t.Fatalf("the intact version 1 file: %v", err)
	}
	metaLenAt := len(Magic) + 4
	bodyLenAt := len(Magic) + 8 + int(binary.LittleEndian.Uint32(raw[metaLenAt:]))
	cases := []struct {
		name string
		at   int
		put  func([]byte)
	}{
		{"body length top bit", bodyLenAt, func(b []byte) { binary.LittleEndian.PutUint64(b, 1<<63) }},
		{"body length max", bodyLenAt, func(b []byte) { binary.LittleEndian.PutUint64(b, ^uint64(0)) }},
		{"body length one over", bodyLenAt, func(b []byte) {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
		}},
		{"body length one under", bodyLenAt, func(b []byte) {
			binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)-1)
		}},
		{"meta length max", metaLenAt, func(b []byte) { binary.LittleEndian.PutUint32(b, ^uint32(0)) }},
	}
	for _, c := range cases {
		bad := append([]byte(nil), raw...)
		c.put(bad[c.at:])
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(path); err == nil || !strings.Contains(err.Error(), "length") {
			t.Errorf("%s: Load = %v, want a length error", c.name, err)
		}
	}
	// The 26-byte reproduction: header, empty-object metadata, huge body
	// length, nothing after it.
	short := append([]byte(Magic), 1, 0, 0, 0, 2, 0, 0, 0, '{', '}')
	short = binary.LittleEndian.AppendUint64(short, 1<<63)
	if err := os.WriteFile(path, short, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil {
		t.Error("26-byte file with a negative body length loaded")
	}
	// A sealed file's meta length is only read once the checksum holds;
	// resealed, an impossible one is still refused.
	_, _, v2 := savedFile(t)
	binary.LittleEndian.PutUint32(v2[metaLenAt:], ^uint32(0))
	sealed := v2[:len(v2)-8]
	v2 = binary.LittleEndian.AppendUint64(sealed, uint64(crc32.Checksum(sealed, castagnoli)))
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil || !strings.Contains(err.Error(), "meta length") {
		t.Errorf("resealed 4 GiB meta length: Load = %v, want a meta length error", err)
	}
}

// TestLoadEveryPrefixFails cuts a sealed and a version 1 file at every
// byte: each prefix must be an error, never a panic and never a
// shorter-but-plausible checkpoint.
func TestLoadEveryPrefixFails(t *testing.T) {
	path, _, v2 := savedFile(t)
	for version, raw := range map[string][]byte{"v1": v1File(t), "v2": v2} {
		for cut := 0; cut < len(raw); cut++ {
			if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Load(path); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes loaded", version, cut, len(raw))
			}
		}
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes to Load: any outcome but a
// panic is fine, and whatever Load accepts must survive a re-save.
func FuzzCheckpointLoad(f *testing.F) {
	_, _, raw := savedFile(f)
	v1 := v1File(f)
	for _, b := range [][]byte{raw, v1} {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add(binary.LittleEndian.AppendUint64(append([]byte(Magic), 1, 0, 0, 0, 2, 0, 0, 0, '{', '}'), 1<<63))
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		meta, snap, err := Load(path)
		if err != nil {
			return
		}
		if err := Save(path, meta, snap); err != nil {
			t.Fatalf("re-saving an accepted checkpoint: %v", err)
		}
		if _, _, err := Load(path); err != nil {
			t.Fatalf("re-loading a re-saved checkpoint: %v", err)
		}
	})
}
