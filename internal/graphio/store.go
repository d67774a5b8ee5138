package graphio

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"sync"

	"ncc/internal/blob"
	"ncc/internal/graph"
)

// Store is the graph-format layer over a blob store of .nccg files: every
// graph lives at <dir>/<sha256-of-bytes>.nccg, so the file name is a
// verifiable identity that scenarios embed (the "file" family's file field)
// and cluster nodes exchange (/v1/graphs/{hash}). Dir, Path and Has come
// from the blob store.
type Store struct {
	*blob.Store
}

// NewStore opens (creating if needed) a graph store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("graphio: empty store directory")
	}
	b, err := blob.Open(dir, ".nccg")
	if err != nil {
		return nil, err
	}
	return &Store{b}, nil
}

// Open loads a stored graph. The blob store re-verifies that the bytes still
// hash to their name, so a corrupted or hand-renamed file is an error, never
// a wrong graph.
func (s *Store) Open(hash string) (*graph.Graph, error) {
	data, err := s.Get(hash)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(data)
}

// PutGraph stores g's canonical encoding and returns its content hash.
// Storing the same graph twice is idempotent.
func (s *Store) PutGraph(g *graph.Graph) (string, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		return "", err
	}
	return s.Put(&buf, nil)
}

// PutFile ingests an existing .nccg file (validating it fully, symmetry
// included) and returns its content hash.
func (s *Store) PutFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	hash, _, err := s.PutStream(f)
	return hash, err
}

// PutStream ingests .nccg bytes from r: they are spooled while hashing, fully
// validated (structure and symmetry) before they take an address, and
// committed under their content hash. Returns the hash and the decoded graph.
func (s *Store) PutStream(r io.Reader) (string, *graph.Graph, error) {
	var g *graph.Graph
	hash, err := s.Put(r, func(f *os.File, size int64) (err error) {
		if g, err = Decode(f, size); err == nil {
			err = VerifySymmetric(g)
		}
		return err
	})
	if err != nil {
		return "", nil, err
	}
	return hash, g, nil
}

// Package-level resolver state: the active store directory, an optional
// network fetcher (cluster workers install one pointing at their
// coordinator), and a small memo of decoded graphs — graphs are immutable
// after load, so sweeps re-running the same file family share one instance.
var (
	resolveMu sync.Mutex
	storeDir  string
	activeSt  *Store
	fetchFn   func(hash string) (io.ReadCloser, error)
	memo      = map[string]*graph.Graph{}
)

const memoLimit = 8

// DefaultDir returns the store directory used when nothing is configured:
// $NCC_GRAPH_DIR, or "graphs".
func DefaultDir() string {
	if d := os.Getenv("NCC_GRAPH_DIR"); d != "" {
		return d
	}
	return "graphs"
}

// SetStoreDir points the package-level resolver at a store directory
// (creating it lazily on first use) and drops any memoized graphs.
func SetStoreDir(dir string) {
	resolveMu.Lock()
	defer resolveMu.Unlock()
	storeDir = dir
	activeSt = nil
	memo = map[string]*graph.Graph{}
}

// ActiveStore returns the process-wide store the "file" family resolves
// against, opening it on first use.
func ActiveStore() (*Store, error) {
	resolveMu.Lock()
	defer resolveMu.Unlock()
	return activeStoreLocked()
}

func activeStoreLocked() (*Store, error) {
	var err error
	if activeSt == nil {
		activeSt, err = NewStore(cmp.Or(storeDir, DefaultDir()))
	}
	return activeSt, err
}

// SetFetcher installs a fallback used when a requested hash is missing from
// the local store — cluster workers point this at their coordinator's
// /v1/graphs route. Fetched bytes are validated and persisted locally. Pass
// nil to remove.
func SetFetcher(fn func(hash string) (io.ReadCloser, error)) {
	resolveMu.Lock()
	defer resolveMu.Unlock()
	fetchFn = fn
}

// Resolve loads the graph named by a content hash: memo, then the local
// store, then the installed fetcher. This is the loader behind the "file"
// graph family (installed via graph.SetFileResolver in init).
func Resolve(ref string) (*graph.Graph, error) {
	if !blob.ValidHash(ref) {
		return nil, fmt.Errorf("graphio: %q is not a sha256 graph hash (64 hex digits)", ref)
	}
	resolveMu.Lock()
	defer resolveMu.Unlock()
	if g, ok := memo[ref]; ok {
		return g, nil
	}
	st, err := activeStoreLocked()
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	if st.Has(ref) {
		g, err = st.Open(ref)
		if err != nil {
			return nil, err
		}
	} else if fetchFn != nil {
		rc, err := fetchFn(ref)
		if err != nil {
			return nil, fmt.Errorf("graphio: graph %s not in store %s and fetch failed: %w", ref, st.Dir(), err)
		}
		hash, fetched, err := st.PutStream(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("graphio: fetched graph %s: %w", ref, err)
		}
		if hash != ref {
			// The valid bytes keep their true address; nothing is deleted.
			return nil, fmt.Errorf("graphio: fetched graph hashes to %s, want %s", hash, ref)
		}
		g = fetched
	} else {
		return nil, fmt.Errorf("graphio: graph %s not found in store %s (ingest it with nccgraph)", ref, st.Dir())
	}
	if len(memo) >= memoLimit {
		memo = map[string]*graph.Graph{}
	}
	memo[ref] = g
	return g, nil
}

func init() {
	graph.SetFileResolver(Resolve)
}
