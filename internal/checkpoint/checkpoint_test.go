package checkpoint

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
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
	probe, err := ReadMetaOnly(path)
	if err != nil || !reflect.DeepEqual(probe, meta) {
		t.Fatalf("ReadMetaOnly = %+v, %v; want %+v", probe, err, meta)
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

// TestLoadBadLengths corrupts the two length fields. A body length with
// the top bit set used to go negative through int() and panic on r[:n].
func TestLoadBadLengths(t *testing.T) {
	path, _, raw := savedFile(t)
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
		if _, _, err := Load(path); err == nil {
			t.Errorf("%s: Load accepted the file", c.name)
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
	// ReadMetaOnly must not allocate a metadata buffer the file cannot fill.
	binary.LittleEndian.PutUint32(short[metaLenAt:], ^uint32(0))
	if err := os.WriteFile(path, short, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMetaOnly(path); err == nil {
		t.Error("ReadMetaOnly accepted a 4 GiB metadata length in a 26-byte file")
	}
}

// TestLoadEveryPrefixFails cuts the file at every byte: each prefix must
// be an error from both readers (ReadMetaOnly once the metadata is cut),
// never a panic and never a shorter-but-plausible checkpoint.
func TestLoadEveryPrefixFails(t *testing.T) {
	path, _, raw := savedFile(t)
	metaEnd := len(Magic) + 8 + int(binary.LittleEndian.Uint32(raw[len(Magic)+4:]))
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(path); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded", cut, len(raw))
		}
		if _, err := ReadMetaOnly(path); (err == nil) != (cut >= metaEnd) {
			t.Fatalf("ReadMetaOnly on %d bytes (metadata ends at %d): err=%v", cut, metaEnd, err)
		}
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes to both readers: any outcome
// but a panic is fine, and whatever Load accepts must survive a re-save.
func FuzzCheckpointLoad(f *testing.F) {
	_, _, raw := savedFile(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(binary.LittleEndian.AppendUint64(append([]byte(Magic), 1, 0, 0, 0, 2, 0, 0, 0, '{', '}'), 1<<63))
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = ReadMetaOnly(path)
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
