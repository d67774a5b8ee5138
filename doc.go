// Package nccrepro is a full reproduction of "Distributed Computation in
// Node-Capacitated Networks" (Augustine, Ghaffari, Gmyr, Hinnenthal,
// Scheideler, Kuhn, Li — SPAA 2019) as a Go library: an executable simulator
// of the Node-Capacitated Clique model, the paper's communication primitives
// and graph algorithms, naive baselines, the k-machine simulation of
// Appendix A, and the paper's evaluation as one campaign spec
// (campaigns/paper.json) plus raw-engine benchmarks of the primitives.
//
// See README.md for a tour of the package layout, the round-engine
// architecture, and how to run the examples and benchmarks.
package nccrepro
