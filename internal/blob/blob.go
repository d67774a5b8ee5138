// Package blob is the one content-addressed disk store. Every object lives at
// <dir>/<sha256-hex><ext>, is written once through a temp file and a rename,
// and is checked against its name on every read, so a damaged file is an
// error, never wrong data. Small named refs (<dir>/<name>.ref) point into the
// store and are written atomically by the same code. The graph store
// (graphio) and the nccd result cache are both layers over it.
package blob

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Store is a flat directory of content-addressed objects sharing one file
// extension. It is safe for concurrent use, across processes too: writers
// never touch a final path except by an atomic rename.
type Store struct {
	dir, ext string
}

// Open opens (creating if needed) a store rooted at dir whose objects carry
// the file extension ext (".nccg", ".ndjson").
func Open(dir, ext string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	return &Store{dir: dir, ext: ext}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns where the object with the given hash lives (whether or not it
// currently exists).
func (s *Store) Path(hash string) string { return filepath.Join(s.dir, hash+s.ext) }

// Has reports whether the store holds an object under hash (unverified).
func (s *Store) Has(hash string) bool {
	_, err := os.Stat(s.Path(hash))
	return err == nil && ValidHash(hash)
}

// Get reads the object stored under hash and checks its bytes against it.
func (s *Store) Get(hash string) ([]byte, error) {
	if !ValidHash(hash) {
		return nil, fmt.Errorf("blob: %q is not a sha256 hash (64 hex digits)", hash)
	}
	data, err := os.ReadFile(s.Path(hash))
	if err != nil {
		return nil, err
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != hash {
		return nil, fmt.Errorf("blob: %s corrupted (bytes hash to %x)", hash, sum)
	}
	return data, nil
}

// Put streams r into a temp file while hashing it and renames the file to
// its content address. check, when non-nil, sees the spooled file (rewound)
// first and can veto the put, so invalid input never takes an address. Put
// always renames: putting an object again repairs a damaged copy.
func (s *Store) Put(r io.Reader, check func(f *os.File, size int64) error) (hash string, err error) {
	err = s.write(func(f *os.File) (string, error) {
		h := sha256.New()
		size, err := io.Copy(io.MultiWriter(f, h), r)
		if err == nil && check != nil {
			if _, err = f.Seek(0, io.SeekStart); err == nil {
				err = check(f, size)
			}
		}
		hash = hex.EncodeToString(h.Sum(nil))
		return s.Path(hash), err
	})
	if err != nil {
		hash = ""
	}
	return hash, err
}

// PutRef atomically sets the named ref to data.
func (s *Store) PutRef(name string, data []byte) error {
	return s.write(func(f *os.File) (string, error) {
		_, err := f.Write(data)
		return s.refPath(name), err
	})
}

// Ref reads the named ref.
func (s *Store) Ref(name string) ([]byte, error) { return os.ReadFile(s.refPath(name)) }

// refPath is where the named ref lives; a stray name never walks the
// filesystem.
func (s *Store) refPath(name string) string {
	return filepath.Join(s.dir, filepath.Base(name)+".ref")
}

// write fills a fresh temp file in the store directory and renames it to the
// path fill returns. A failed write leaves nothing behind.
func (s *Store) write(fill func(f *os.File) (string, error)) error {
	f, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	dst, err := fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(f.Name(), dst)
}

// ValidHash reports whether ref looks like a sha256 hash: exactly 64
// lowercase hex digits.
func ValidHash(ref string) bool {
	return len(ref) == 64 && strings.Trim(ref, "0123456789abcdef") == ""
}
