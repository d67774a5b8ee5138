package service

import (
	"errors"
	"io"
	"net/http"

	"ncc/internal/blob"
)

// handleGraphGet serves a stored graph's raw .nccg bytes. http.ServeFile
// provides Content-Length, range requests, and HEAD for free; the content is
// immutable by construction (the name is the hash of the bytes), so clients
// may cache it indefinitely.
func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !blob.ValidHash(hash) {
		httpError(w, http.StatusBadRequest, "%q is not a sha256 graph hash (64 hex digits)", hash)
		return
	}
	if !s.graphs.Has(hash) {
		httpError(w, http.StatusNotFound, "graph %s not in store", hash)
		return
	}
	w.Header().Set("Content-Type", "application/x-nccg")
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	http.ServeFile(w, r, s.graphs.Path(hash))
}

// handleGraphPut ingests an uploaded .nccg graph. The body is fully validated
// (structure and symmetry) and committed under its content hash, which must
// match the one in the URL — the route is declarative ("store these bytes AT
// this address"), so a client bug cannot silently register a graph under a
// wrong name. Re-uploading a stored graph is an idempotent 200.
func (s *Server) handleGraphPut(w http.ResponseWriter, r *http.Request) {
	want := r.PathValue("hash")
	if !blob.ValidHash(want) {
		httpError(w, http.StatusBadRequest, "%q is not a sha256 graph hash (64 hex digits)", want)
		return
	}
	if s.graphs.Has(want) {
		io.Copy(io.Discard, r.Body) // drain so the connection can be reused
		writeJSON(w, http.StatusOK, map[string]string{"hash": want})
		return
	}
	got, _, err := s.graphs.PutStream(http.MaxBytesReader(w, r.Body, s.cfg.MaxGraphBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "graph body exceeds %d bytes", tooLarge.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "invalid graph upload: %v", err)
		return
	}
	if got != want {
		// The bytes were valid and are now stored under their true address;
		// the claim in the URL was wrong, which is a client error.
		httpError(w, http.StatusBadRequest, "uploaded graph hashes to %s, not %s", got, want)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"hash": got})
}
