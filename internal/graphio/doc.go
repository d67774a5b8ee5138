// Package graphio ingests real-world graphs into the ncc toolchain: a
// SNAP-style edge-list text parser with a streaming two-pass CSR builder, a
// compact binary graph format (.nccg), and a content-addressed on-disk store
// that backs the "file" graph family used by scenarios and the cluster.
//
// # The .nccg binary format
//
// A .nccg file is a little-endian serialization of a simple undirected graph
// in CSR (compressed sparse row) form, optionally carrying per-node capacity
// weights. The layout, in file order:
//
//	offset  size        field
//	0       4           magic "NCCG"
//	4       2           version, uint16 (currently 1)
//	6       2           flags, uint16 (bit 0: capacity array present)
//	8       8           n, uint64 — number of nodes
//	16      8           m, uint64 — number of undirected edges
//	24      8*(n+1)     offsets, uint64 — CSR row offsets into targets;
//	                    offsets[0] = 0, nondecreasing, offsets[n] = 2m
//	...     4*2m        targets, uint32 — concatenated adjacency lists;
//	                    list u is targets[offsets[u]:offsets[u+1]], strictly
//	                    ascending, no self-loops, symmetric (v in list u iff
//	                    u in list v)
//	...     4*n         capacities, uint32 (only if flags bit 0) — per-node
//	                    relative capacity weights, each >= 1
//
// The total file size is therefore exactly
//
//	24 + 8*(n+1) + 8*m + [4*n]
//
// and decoders verify the announced size against the actual input before
// allocating, so a malformed header cannot force a huge allocation. Every
// structural invariant above (monotone offsets, sorted in-range targets, no
// self-loops, positive capacity weights) is checked on decode; symmetry is
// checked by VerifySymmetric, which the store runs on ingest so stored files
// are known-good.
//
// Encoding is canonical: a given graph (plus optional capacity array) has
// exactly one .nccg byte representation, which is what makes the store's
// content addressing — and the byte-identical gen/export/ingest round-trip
// the CI smoke lane asserts — work.
//
// # The content-addressed store
//
// A Store is the graph-format layer (encode, decode, symmetry check) over a
// blob store of <sha256>.nccg files (package blob): uploads are validated
// before they take an address, and every Open re-checks the bytes. The hash
// is the graph's identity: scenarios reference it in the "file" family's file
// field, so it lands in the canonical scenario hash (nccd's result cache tells
// runs on different graphs apart for free), and cluster workers that miss a
// hash fetch the bytes from the coordinator's /v1/graphs/{hash} route.
//
// # Edge-list ingestion
//
// ParseEdgeList reads SNAP-style text: one "u<sep>v" pair per line (any mix
// of spaces/tabs), '#' or '%' comment lines, arbitrary non-negative int64
// node ids, duplicate edges and self-loops tolerated and dropped. Ids are
// remapped to a dense 0..n-1 by ascending original id — except when a
// "# Nodes: N" header precedes the edges and every id already fits in
// [0, N), in which case ids are kept verbatim (so a graph exported with
// WriteEdgeList re-ingests to the identical dense graph, isolated nodes
// included). The parser is two-pass over an io.ReadSeeker: pass one counts
// degrees, pass two fills a single exactly-sized CSR backing array, so peak
// memory stays within ~1.3x of the final in-memory graph instead of the ~3x
// a map-of-edges intermediate costs.
package graphio
