package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	pol := &congest.CheckpointPolicy{AtRound: 4, Sink: k.Sink}
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
	if err := gotMeta.ValidateAgainst(g, meta.Sources, 5, ""); err != nil {
		t.Fatalf("ValidateAgainst the same run: %v", err)
	}
	if err := gotMeta.ValidateAgainst(g, meta.Sources, 6, ""); err == nil {
		t.Fatal("hop mismatch accepted")
	}
}

// fixture returns a committed checkpoint from testdata/compat.
func fixture(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "compat", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// reseal replaces raw's trailing checksum with the one its other bytes
// call for, so a test can get an edited header past the checksum.
func reseal(raw []byte) []byte {
	sealed := raw[:len(raw)-8]
	return binary.LittleEndian.AppendUint64(sealed, uint64(crc32.Checksum(sealed, castagnoli)))
}

// TestLoadBadLengths gives a sealed file an impossible meta length and
// reseals it: the length is only read once the checksum holds, and even
// then it is compared unsigned against the file, never trusted.
func TestLoadBadLengths(t *testing.T) {
	path, _, raw := savedFile(t)
	binary.LittleEndian.PutUint32(raw[len(Magic)+4:], ^uint32(0))
	if err := os.WriteFile(path, reseal(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil || !strings.Contains(err.Error(), "meta length") {
		t.Errorf("resealed 4 GiB meta length: Load = %v, want a meta length error", err)
	}
}

// TestReadSealedRefusesOtherVersions holds the container to its one
// layout: a file whose version word is anything but 2, resealed so that
// only the version is wrong, is refused as ErrCorrupt by its version. The
// unsealed version 1 of older builds is among them.
func TestReadSealedRefusesOtherVersions(t *testing.T) {
	path, _, raw := savedFile(t)
	for _, version := range []uint32{0, 1, 3} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(bad[len(Magic):], version)
		if err := os.WriteFile(path, reseal(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadSealed(path, Magic)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", version)) {
			t.Errorf("version %d: ReadSealed = %v, want ErrCorrupt naming the version", version, err)
		}
	}
}

// TestLoadEveryPrefixFails cuts a sealed file at every byte: each prefix
// must be an error, never a panic and never a shorter-but-plausible
// checkpoint.
func TestLoadEveryPrefixFails(t *testing.T) {
	path, _, raw := savedFile(t)
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(path); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded", cut, len(raw))
		}
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes to Load: any outcome but a
// panic is fine, and whatever Load accepts must survive a re-save. The
// seeds are a fresh save and two pinned fixtures whose bodies hold many
// node kinds (core with a fault network and an observer blob; the blocker
// family), each whole and halved.
func FuzzCheckpointLoad(f *testing.F) {
	_, _, raw := savedFile(f)
	for _, b := range [][]byte{raw, fixture(f, "core-chaos-obs-active.ckpt"), fixture(f, "blocker-score-active.ckpt")} {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
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
