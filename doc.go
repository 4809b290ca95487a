// Package repro is a from-scratch Go reproduction of "Handling Audio
// and Video Streams in a Distributed Environment" (Jones & Hopper,
// SOSP 1993) — the Pandora networked multimedia system. See README.md
// for the architecture and DESIGN.md for the full system inventory
// and experiment index. cmd/pandora-bench regenerates every table and
// figure of the paper's evaluation; bench/ measures what that costs.
package repro
