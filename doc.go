// Package repro is a from-scratch Go reproduction of "Energy-Aware Routing
// for E-Textile Applications" (Kao and Marculescu, DATE 2005).
//
// The implementation lives under internal/ (see DESIGN.md for the full system
// inventory); command-line tools live under cmd/, runnable examples under
// examples/. cmd/etbench regenerates every table and figure of the paper's
// evaluation section (documented in EXPERIMENTS.md), and the bench/ module
// times it and the other workloads of the repository benchmark.
package repro
