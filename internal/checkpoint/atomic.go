package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
)

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
