// Command vpcache inspects and maintains the persistent artifact store
// (internal/cas) that vpack, vpbench and vpackd share via -store.
//
// Usage:
//
//	vpcache ls -store DIR                      # every entry: kind, key, size, age
//	vpcache stat -store DIR                    # footprint summary (entries, chunks, segments, bytes)
//	vpcache verify -store DIR                  # reassemble and checksum every entry; exit 1 on corruption
//	vpcache gc -store DIR [-maxbytes N] [-maxage DUR]
//
// gc evicts oldest-first until the live payload fits -maxbytes (0 = no
// size bound) and drops entries older than -maxage (0 = no age bound),
// then compacts the survivors into a fresh segment; with both bounds
// zero it still reclaims overwrite garbage. verify exits nonzero if any
// entry fails its checksums, so scripts can gate on store health.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cas"
	"repro/internal/cliflags"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "ls":
		cmdLs(os.Args[2:])
	case "stat":
		cmdStat(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "gc":
		cmdGC(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  vpcache ls -store DIR
  vpcache stat -store DIR
  vpcache verify -store DIR
  vpcache gc -store DIR [-maxbytes N] [-maxage DUR]`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpcache:", err)
	os.Exit(1)
}

// openStore opens the -store directory a subcommand parsed; every
// subcommand requires it.
func openStore(dir string) *cas.Store {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "vpcache: -store is required")
		os.Exit(2)
	}
	s, err := cas.Open(dir)
	if err != nil {
		fatal(err)
	}
	return s
}

func cmdLs(args []string) {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := cliflags.StoreFlag(fs)
	kind := fs.String("kind", "", "show only entries of this kind")
	fs.Parse(args)
	s := openStore(*dir)
	defer s.Close()

	entries := s.List()
	fmt.Printf("%-18s %-33s %10s  %s\n", "kind", "key", "bytes", "created")
	shown := 0
	for _, e := range entries {
		if *kind != "" && e.Kind != *kind {
			continue
		}
		fmt.Printf("%-18s %016x/%016x %10d  %s\n",
			e.Kind, e.Key.A, e.Key.B, e.Size,
			time.Unix(e.Created, 0).UTC().Format(time.RFC3339))
		shown++
	}
	fmt.Printf("%d entries\n", shown)
}

func cmdStat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	dir := cliflags.StoreFlag(fs)
	fs.Parse(args)
	s := openStore(*dir)
	defer s.Close()
	writeStat(os.Stdout, s)
}

// writeStat prints the store's footprint summary, with an entry count
// for every kind it holds.
func writeStat(w io.Writer, s *cas.Store) {
	st := s.Stats()
	byKind := map[string]int{}
	for _, e := range s.List() {
		byKind[e.Kind]++
	}
	fmt.Fprintf(w, "store      %s\n", s.Dir())
	fmt.Fprintf(w, "entries    %d\n", st.Entries)
	for _, k := range cas.Kinds {
		if n := byKind[k]; n > 0 {
			fmt.Fprintf(w, "  %-17s %d\n", k, n)
		}
	}
	fmt.Fprintf(w, "chunks     %d (%d deduplicated)\n", st.Chunks, st.DedupChunks)
	fmt.Fprintf(w, "segments   %d\n", st.Segments)
	fmt.Fprintf(w, "disk       %d bytes\n", st.DiskBytes)
	fmt.Fprintf(w, "live       %d bytes\n", st.LiveBytes)
	if st.GCRuns > 0 {
		fmt.Fprintf(w, "gc         %d runs, %d bytes reclaimed\n", st.GCRuns, st.GCReclaimedBytes)
	}
	if err := s.LoadErr(); err != nil {
		fmt.Fprintf(w, "DEGRADED   %v\n", err)
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := cliflags.StoreFlag(fs)
	fs.Parse(args)
	s := openStore(*dir)
	defer s.Close()

	errs := s.Verify()
	st := s.Stats()
	if len(errs) == 0 {
		fmt.Printf("ok: %d entries, %d segments, %d bytes\n", st.Entries, st.Segments, st.DiskBytes)
		return
	}
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "vpcache:", err)
	}
	fmt.Fprintf(os.Stderr, "vpcache: %d problem(s) in %d entries\n", len(errs), st.Entries)
	os.Exit(1)
}

func cmdGC(args []string) {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	dir := cliflags.StoreFlag(fs)
	maxBytes := fs.Int64("maxbytes", 0, "evict oldest entries until the live payload fits (0: no size bound)")
	maxAge := fs.Duration("maxage", 0, "drop entries older than this (0: no age bound)")
	fs.Parse(args)
	s := openStore(*dir)
	defer s.Close()

	res, err := s.GC(*maxBytes, *maxAge)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("reclaimed %d bytes, dropped %d entries; %d entries (%d bytes) live\n",
		res.ReclaimedBytes, res.DroppedEntries, res.LiveEntries, res.LiveBytes)
}
