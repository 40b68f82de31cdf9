package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Sealed container, version 2 (little-endian): the one layout of both
// state files, engine checkpoints (magic Magic) and the oracle's snapshots:
//
//	magic    [8]byte  names the file kind
//	version  u32      2
//	metaLen  u32
//	meta     JSON     the caller's metadata
//	pad      zeros    up to the next multiple of 8 bytes from the file start
//	body     bytes    the caller's payload, in the parts it was handed over
//	checksum u64      CRC-32C (Castagnoli) over every preceding byte
//
// The padding puts the body at an 8-aligned offset of the read buffer, so
// a reader can adopt fixed-width columns in place. The checksum makes
// every torn or bit-flipped file a loud ErrCorrupt instead of a silently
// wrong resume or answer. It is the only layout read: a file of any other
// version (the unsealed version 1 included) is refused as ErrCorrupt.
const sealedVersion = 2

// castagnoli is the CRC-32C table; hash/crc32 computes it in hardware
// where the CPU has an instruction for it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every ReadSealed failure caused by the file's
// contents, as opposed to an I/O error.
var ErrCorrupt = errors.New("corrupt file")

// WriteSealed writes a version 2 container to path atomically
// (WriteAtomic), streaming the body parts to the file as they are, and
// returns the file's size.
func WriteSealed(path, magic string, meta []byte, body ...[]byte) (int64, error) {
	hdr := make([]byte, (16+len(meta)+7)&^7) // ends in the zero padding
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], sealedVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(meta)))
	copy(hdr[16:], meta)
	size := int64(len(hdr) + 8)
	for _, b := range body {
		size += int64(len(b))
	}
	return size, WriteAtomic(path, func(f *os.File) error {
		sum := crc32.Update(0, castagnoli, hdr)
		if _, err := f.Write(hdr); err != nil {
			return err
		}
		for _, b := range body {
			sum = crc32.Update(sum, castagnoli, b)
			if _, err := f.Write(b); err != nil {
				return err
			}
		}
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], uint64(sum))
		_, err := f.Write(tail[:])
		return err
	})
}

// ReadSealed reads the version 2 container at path and returns its meta
// and body as subslices of the read buffer, the body 8-aligned. The
// checksum is checked before any length in the file is read. Every
// failure caused by the contents, a version other than 2 included, wraps
// ErrCorrupt.
func ReadSealed(path, magic string) (meta, body []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w %s: %s", ErrCorrupt, path, fmt.Sprintf(format, args...))
	}
	if len(data) < 16+8 {
		return nil, nil, corrupt("%d bytes, too short for a container", len(data))
	}
	if string(data[:8]) != magic {
		return nil, nil, corrupt("magic %q, want %q", data[:8], magic)
	}
	if version := binary.LittleEndian.Uint32(data[8:12]); version != sealedVersion {
		return nil, nil, corrupt("unsupported version %d", version)
	}
	sealed, tail := data[:len(data)-8], data[len(data)-8:]
	if sum, want := uint64(crc32.Checksum(sealed, castagnoli)), binary.LittleEndian.Uint64(tail); sum != want {
		return nil, nil, corrupt("checksum %016x, file says %016x", sum, want)
	}
	metaLen := uint64(binary.LittleEndian.Uint32(sealed[12:16]))
	bodyAt := (16 + metaLen + 7) &^ 7
	if bodyAt > uint64(len(sealed)) {
		return nil, nil, corrupt("meta length %d exceeds the file", metaLen)
	}
	return sealed[16 : 16+metaLen], sealed[bodyAt:], nil
}

// WriteAtomic replaces path with what body writes, durably: a temp file in
// path's directory is written by body, fsynced, closed and renamed over
// path, and the parent directory is fsynced (the rename is only durable
// once the directory entry is on disk — without that, a power cut can
// forget the whole file even though its contents were synced). After a
// crash at any instant, path holds either the complete new contents or
// whatever was there before, never a tear. On error the temp file is
// removed and path is untouched.
func WriteAtomic(path string, body func(*os.File) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("creating temp file: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = body(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", f.Name(), err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", f.Name(), err)
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("installing %s: %w", path, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("opening dir for sync: %w", err)
	}
	defer d.Close()
	if err = d.Sync(); err != nil {
		return fmt.Errorf("syncing dir %s: %w", dir, err)
	}
	return nil
}
