// Package trace builds problem instances from captured workload traces. The
// paper assumes the workload and its statistics are known ("Workload known",
// Section 1); in practice they come from a query log. This package accepts
// two small CSV formats:
//
// Schema CSV (one line per attribute):
//
//	table,attribute,width
//	Customer,C_ID,4
//	Customer,C_DATA,500
//
// Workload CSV (one line per (query, table) access):
//
//	transaction,query,kind,table,attributes,rows,frequency
//	Payment,getWarehouse,read,Warehouse,W_ID;W_NAME;W_CITY,1,43
//	Payment,updateWarehouseYTD,update,Warehouse,W_ID|W_YTD,1,43
//
// kind is one of read, write or update. For update lines the attributes
// column has the form "readAttrs|writtenAttrs" (each a ';'-separated list)
// and the line expands into the paper's read + write sub-query pair. Multiple
// lines with the same transaction and query name are merged into one query
// accessing several tables; they must agree on its kind.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vpart/internal/core"
)

// ParseSchemaCSV reads a "table,attribute,width" CSV (with or without a
// header line) into a schema. Attribute order follows the file.
func ParseSchemaCSV(r io.Reader) (core.Schema, error) {
	var schema core.Schema
	tableIdx := make(map[string]int)
	reader := csv.NewReader(r)
	reader.FieldsPerRecord = 3
	reader.TrimLeadingSpace = true
	line := 0
	for {
		rec, err := reader.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return core.Schema{}, fmt.Errorf("trace: schema csv: %w", err)
		}
		line++
		if line == 1 && strings.EqualFold(strings.TrimSpace(rec[2]), "width") {
			continue // header
		}
		table := strings.TrimSpace(rec[0])
		attr := strings.TrimSpace(rec[1])
		width, err := strconv.Atoi(strings.TrimSpace(rec[2]))
		if err != nil {
			return core.Schema{}, fmt.Errorf("trace: schema csv line %d: invalid width %q", line, rec[2])
		}
		if table == "" || attr == "" {
			return core.Schema{}, fmt.Errorf("trace: schema csv line %d: empty table or attribute", line)
		}
		ti, ok := tableIdx[table]
		if !ok {
			ti = len(schema.Tables)
			tableIdx[table] = ti
			schema.Tables = append(schema.Tables, core.Table{Name: table})
		}
		schema.Tables[ti].Attributes = append(schema.Tables[ti].Attributes, core.Attribute{Name: attr, Width: width})
	}
	if err := schema.Validate(); err != nil {
		return core.Schema{}, err
	}
	return schema, nil
}

// accessLine is one parsed workload CSV record.
type accessLine struct {
	txn, query, kind, table string
	attrs                   string
	rows                    float64
	freq                    float64
	line                    int
}

// BuildInstance reads a workload CSV and combines it with the given schema
// into a validated instance.
func BuildInstance(name string, schema core.Schema, workload io.Reader) (*core.Instance, error) {
	lines, err := parseWorkloadCSV(workload)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("trace: workload csv contains no accesses")
	}

	inst := &core.Instance{Name: name, Schema: schema}
	txnIdx := make(map[string]int)
	// Queries are indexed by position, not by pointer: appending a
	// transaction's next query may move its query slice. A query keeps the
	// kind and the line it was first seen with.
	type queryKey struct{ txn, query string }
	type queryPos struct {
		txn, query int
		kind       core.QueryKind
		line       int
	}
	queryIdx := make(map[queryKey]queryPos)

	// addAccesses appends q's accesses to the query of transaction txn that
	// has q's name, adding q itself when there is none. line is the CSV
	// line q came from.
	addAccesses := func(txn string, q core.Query, line int) error {
		key := queryKey{txn, q.Name}
		if pos, ok := queryIdx[key]; ok {
			if pos.kind != q.Kind {
				return fmt.Errorf("trace: workload csv line %d: query %s/%s is a %s, but line %d made it a %s",
					line, txn, q.Name, q.Kind, pos.line, pos.kind)
			}
			prev := &inst.Workload.Transactions[pos.txn].Queries[pos.query]
			prev.Accesses = append(prev.Accesses, q.Accesses...)
			return nil
		}
		ti, ok := txnIdx[txn]
		if !ok {
			ti = len(inst.Workload.Transactions)
			txnIdx[txn] = ti
			inst.Workload.Transactions = append(inst.Workload.Transactions, core.Transaction{Name: txn})
		}
		qs := &inst.Workload.Transactions[ti].Queries
		*qs = append(*qs, q)
		queryIdx[key] = queryPos{txn: ti, query: len(*qs) - 1, kind: q.Kind, line: line}
		return nil
	}

	for _, l := range lines {
		switch l.kind {
		case "read", "write":
			attrs, err := splitAttrs(l.attrs)
			if err != nil {
				return nil, fmt.Errorf("trace: workload csv line %d: %w", l.line, err)
			}
			q := core.NewRead(l.query, l.table, attrs, l.rows, l.freq)
			if l.kind == "write" {
				q.Kind = core.Write
			}
			if err := addAccesses(l.txn, q, l.line); err != nil {
				return nil, err
			}

		case "update":
			readPart, writePart, err := splitUpdateAttrs(l.attrs)
			if err != nil {
				return nil, fmt.Errorf("trace: workload csv line %d: %w", l.line, err)
			}
			for _, sub := range core.NewUpdate(l.query, l.table, readPart, writePart, l.rows, l.freq) {
				if err := addAccesses(l.txn, sub, l.line); err != nil {
					return nil, err
				}
			}

		default:
			return nil, fmt.Errorf("trace: workload csv line %d: unknown kind %q (want read, write or update)", l.line, l.kind)
		}
	}

	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// parseWorkloadCSV reads the raw records.
func parseWorkloadCSV(r io.Reader) ([]accessLine, error) {
	reader := csv.NewReader(r)
	reader.FieldsPerRecord = 7
	reader.TrimLeadingSpace = true
	var out []accessLine
	line := 0
	for {
		rec, err := reader.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: workload csv: %w", err)
		}
		line++
		if line == 1 && strings.EqualFold(strings.TrimSpace(rec[0]), "transaction") {
			continue // header
		}
		rows, err := strconv.ParseFloat(strings.TrimSpace(rec[5]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: workload csv line %d: invalid rows %q", line, rec[5])
		}
		freq, err := strconv.ParseFloat(strings.TrimSpace(rec[6]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: workload csv line %d: invalid frequency %q", line, rec[6])
		}
		out = append(out, accessLine{
			txn:   strings.TrimSpace(rec[0]),
			query: strings.TrimSpace(rec[1]),
			kind:  strings.ToLower(strings.TrimSpace(rec[2])),
			table: strings.TrimSpace(rec[3]),
			attrs: strings.TrimSpace(rec[4]),
			rows:  rows,
			freq:  freq,
			line:  line,
		})
	}
	return out, nil
}

// splitAttrs splits a ';'-separated attribute list.
func splitAttrs(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty attribute list %q", s)
	}
	return out, nil
}

// splitUpdateAttrs splits "readAttrs|writtenAttrs".
func splitUpdateAttrs(s string) (read, write []string, err error) {
	parts := strings.Split(s, "|")
	if len(parts) != 2 {
		return nil, nil, fmt.Errorf("update attributes %q must have the form readAttrs|writtenAttrs", s)
	}
	write, err = splitAttrs(parts[1])
	if err != nil {
		return nil, nil, err
	}
	// The read side may be empty (key-only update); the written attributes
	// are then the only ones the read half touches.
	if strings.TrimSpace(parts[0]) == "" {
		return nil, write, nil
	}
	read, err = splitAttrs(parts[0])
	if err != nil {
		return nil, nil, err
	}
	return read, write, nil
}
