// Command vpart-gen generates random problem instances (the paper's Section
// 5.3 generator) as JSON, either from a named class of Table 2 or from
// explicit parameters. With -events it instead generates a synthetic
// query-event stream in the NDJSON wire format of POST
// /v1/sessions/{name}/events, plus (with -base) the base instance the
// events refer to, ready to pipe into vpartd.
//
// Usage examples:
//
//	vpart-gen -list
//	vpart-gen -class rndAt8x15 -seed 7 -out rndAt8x15.json
//	vpart-gen -transactions 20 -tables 20 -max-attrs 35 -out wide.json
//	vpart-gen -events -family ycsb -n 100000 -base inst.json -out events.ndjson
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vpart"
	"vpart/internal/daemon/server"
	"vpart/internal/randgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vpart-gen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vpart-gen", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list the named instance classes and exit")
		className = fs.String("class", "", "named class (e.g. rndAt8x15)")
		seed      = fs.Int64("seed", 1, "random seed")
		out       = fs.String("out", "", "output file (default: stdout)")

		name        = fs.String("name", "", "instance name (custom parameters)")
		txns        = fs.Int("transactions", 15, "|T|: number of transactions")
		tables      = fs.Int("tables", 8, "number of tables")
		maxQueries  = fs.Int("max-queries", 3, "A: max queries per transaction")
		updates     = fs.Int("updates", 10, "B: percentage of update queries")
		maxAttrs    = fs.Int("max-attrs", 15, "C: max attributes per table")
		maxTables   = fs.Int("max-table-refs", 5, "D: max table references per query")
		maxAttrRefs = fs.Int("max-attr-refs", 15, "E: max attribute references per query")
		widths      = fs.String("widths", "4,8", "F: comma-separated allowed attribute widths")
		maxRows     = fs.Int("max-rows", 10, "max average rows per query")

		eventsMode = fs.Bool("events", false, "generate an NDJSON query-event stream instead of an instance")
		family     = fs.String("family", "ycsb", "event-stream family, ycsb or social (with -events)")
		nEvents    = fs.Int("n", 100_000, "number of events to generate (with -events)")
		shapes     = fs.Int("shapes", 10_000, "distinct query shapes in the stream universe (with -events)")
		basePath   = fs.String("base", "", "also write the stream's base instance JSON here (with -events)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *eventsMode {
		return runEvents(*family, *shapes, *nEvents, *seed, *basePath, *out)
	}

	if *list {
		for _, c := range vpart.NamedRandomClasses() {
			fmt.Printf("%-16s A=%d B=%d%% C=%d D=%d E=%d |T|=%d tables=%d\n",
				c.Name, c.MaxQueriesPerTxn, c.UpdatePercent, c.MaxAttrsPerTable,
				c.MaxTableRefsPerQuery, c.MaxAttrRefsPerQuery, c.Transactions, c.Tables)
		}
		return nil
	}

	var params vpart.RandomParams
	if *className != "" {
		p, ok := vpart.RandomClass(*className)
		if !ok {
			return fmt.Errorf("unknown class %q", *className)
		}
		params = p
	} else {
		ws, err := parseWidths(*widths)
		if err != nil {
			return err
		}
		params = vpart.RandomParams{
			Name:                 *name,
			Transactions:         *txns,
			Tables:               *tables,
			MaxQueriesPerTxn:     *maxQueries,
			UpdatePercent:        *updates,
			MaxAttrsPerTable:     *maxAttrs,
			MaxTableRefsPerQuery: *maxTables,
			MaxAttrRefsPerQuery:  *maxAttrRefs,
			AttrWidths:           ws,
			MaxRowsPerQuery:      *maxRows,
		}
		if params.Name == "" {
			params.Name = fmt.Sprintf("custom-t%dx%d-seed%d", *tables, *txns, *seed)
		}
	}

	inst, err := vpart.RandomInstance(params, *seed)
	if err != nil {
		return err
	}
	st := inst.Stats()
	fmt.Fprintf(os.Stderr, "generated %s\n", st)

	if *out == "" {
		return vpart.WriteInstance(os.Stdout, inst)
	}
	if err := vpart.SaveInstance(*out, inst); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "written to %s\n", *out)
	return nil
}

// runEvents generates a synthetic query-event stream as NDJSON — the exact
// wire format of POST /v1/sessions/{name}/events, one event per line.
func runEvents(family string, shapes, n int, seed int64, basePath, out string) error {
	var (
		stream *randgen.EventStream
		err    error
	)
	switch family {
	case "ycsb":
		stream, err = randgen.NewYCSB(randgen.YCSBParams{Shapes: shapes}, seed)
	case "social":
		stream, err = randgen.NewSocial(randgen.SocialParams{Shapes: shapes}, seed)
	default:
		return fmt.Errorf("unknown event-stream family %q (want ycsb or social)", family)
	}
	if err != nil {
		return err
	}
	if basePath != "" {
		if err := vpart.SaveInstance(basePath, stream.Base()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "base instance written to %s\n", basePath)
	}

	var dst io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	w := bufio.NewWriter(dst)
	enc := json.NewEncoder(w)
	batch := make([]vpart.QueryEvent, 8192)
	for done := 0; done < n; {
		if rest := n - done; rest < len(batch) {
			batch = batch[:rest]
		}
		stream.Fill(batch)
		for i := range batch {
			if err := enc.Encode(server.EventDTO{
				Txn: batch[i].Txn, Query: batch[i].Query,
				Kind: batch[i].Kind, Accesses: batch[i].Accesses,
			}); err != nil {
				return err
			}
		}
		done += len(batch)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d %s events over %d shapes (seed %d)\n", n, stream.Name(), shapes, seed)
	return nil
}

func parseWidths(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("invalid width %q: %w", part, err)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no attribute widths given")
	}
	return out, nil
}
