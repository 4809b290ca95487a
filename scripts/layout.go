//go:build ignore

// layout prints where named functions start in a built Go binary: each
// function's entry address, that address mod 64, the offset within a
// cache line, and mod 4 096, the offset within a page. Hot loops run
// measurably faster or slower with where they fall, and builds whose
// functions sit at the same offsets mod 64 but not mod 4 096 have run
// at different speeds, so two builds compared on speed should be
// compared on both. Run from the repository root on an ELF binary:
//
//	go build -o /tmp/bench ./bench
//	go run scripts/layout.go /tmp/bench video.dpcmLines 'occam.(*Runtime).pick'
//
// A name matches the symbol of that name or one ending in "/" and the
// name, so the package path before the last element may be left out.
// A name no symbol matches prints "not found"; only a binary that
// cannot be read is an error (exit 1).
package main

import (
	"debug/elf"
	"fmt"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/layout.go BINARY FUNC...")
		os.Exit(2)
	}
	f, err := elf.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "layout:", err)
		os.Exit(1)
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		fmt.Fprintln(os.Stderr, "layout:", err)
		os.Exit(1)
	}
	for _, name := range os.Args[2:] {
		found := false
		for _, s := range syms {
			if elf.ST_TYPE(s.Info) == elf.STT_FUNC && (s.Name == name || strings.HasSuffix(s.Name, "/"+name)) {
				fmt.Printf("%-32s %#x  mod 64 = %2d  mod 4096 = %4d\n", name, s.Value, s.Value%64, s.Value%4096)
				found = true
			}
		}
		if !found {
			fmt.Printf("%-32s not found\n", name)
		}
	}
}
