package core

import (
	"math"
	"strings"
	"testing"
)

func TestQueryConstructors(t *testing.T) {
	r := NewRead("q", "R", []string{"a1"}, 5, 2)
	if r.Kind != Read || r.IsWrite() {
		t.Fatalf("NewRead produced kind %v", r.Kind)
	}
	if r.Frequency != 2 || len(r.Accesses) != 1 || r.Accesses[0].Rows != 5 {
		t.Fatalf("NewRead fields wrong: %+v", r)
	}
	w := NewWrite("q", "R", []string{"a1"}, 1, 1)
	if w.Kind != Write || !w.IsWrite() {
		t.Fatalf("NewWrite produced kind %v", w.Kind)
	}
	if got := w.Tables(); len(got) != 1 || got[0] != "R" {
		t.Fatalf("Tables = %v", got)
	}
}

func TestNewUpdateSplitsIntoReadAndWrite(t *testing.T) {
	qs := NewUpdate("upd", "R", []string{"a1", "a2"}, []string{"a2", "a3"}, 3, 2)
	if len(qs) != 2 {
		t.Fatalf("NewUpdate returned %d queries, want 2", len(qs))
	}
	rd, wr := qs[0], qs[1]
	if rd.Kind != Read || wr.Kind != Write {
		t.Fatalf("kinds = %v, %v", rd.Kind, wr.Kind)
	}
	if !strings.HasSuffix(rd.Name, ".read") || !strings.HasSuffix(wr.Name, ".write") {
		t.Fatalf("names = %q, %q", rd.Name, wr.Name)
	}
	// The read half accesses the union of read and written attributes,
	// without duplicates.
	got := rd.Accesses[0].Attributes
	want := []string{"a1", "a2", "a3"}
	if len(got) != len(want) {
		t.Fatalf("read attrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("read attrs = %v, want %v", got, want)
		}
	}
	// The write half accesses only the written attributes.
	if got := wr.Accesses[0].Attributes; len(got) != 2 || got[0] != "a2" || got[1] != "a3" {
		t.Fatalf("write attrs = %v", got)
	}
	if rd.Frequency != 2 || wr.Frequency != 2 || rd.Accesses[0].Rows != 3 || wr.Accesses[0].Rows != 3 {
		t.Fatalf("statistics not propagated: %+v %+v", rd, wr)
	}
}

func TestQueryKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("String() = %q, %q", Read.String(), Write.String())
	}
	if s := QueryKind(7).String(); !strings.Contains(s, "7") {
		t.Fatalf("unexpected invalid kind string %q", s)
	}
}

func TestWorkloadValidateOK(t *testing.T) {
	inst := testInstance()
	if err := inst.Workload.Validate(&inst.Schema); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	if got := inst.Workload.NumTransactions(); got != 2 {
		t.Fatalf("NumTransactions = %d", got)
	}
	if got := inst.Workload.NumQueries(); got != 3 {
		t.Fatalf("NumQueries = %d", got)
	}
}

func TestWorkloadValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"no transactions", func(in *Instance) { in.Workload.Transactions = nil }, "workload: no transactions"},
		{"empty txn name", func(in *Instance) { in.Workload.Transactions[0].Name = "" },
			"workload: transaction with empty name"},
		{"duplicate txn", func(in *Instance) { in.Workload.Transactions[1].Name = "T1" },
			`workload: duplicate transaction "T1"`},
		{"txn without queries", func(in *Instance) { in.Workload.Transactions[0].Queries = nil },
			`workload: transaction "T1" has no queries`},
		{"empty query name", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Name = "" },
			`workload: transaction "T1" has a query with empty name`},
		{"bad kind", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Kind = QueryKind(9) },
			"workload: query T1/q1 has invalid kind 9"},
		{"bad frequency", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Frequency = 0 },
			"workload: query T1/q1 has non-positive frequency 0"},
		{"negative infinite frequency", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Frequency = math.Inf(-1) },
			"workload: query T1/q1 has non-positive frequency -Inf"},
		{"infinite frequency", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Frequency = math.Inf(1) },
			"workload: query T1/q1 has non-finite frequency +Inf"},
		{"NaN frequency", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Frequency = math.NaN() },
			"workload: query T1/q1 has non-finite frequency NaN"},
		{"no accesses", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Accesses = nil },
			"workload: query T1/q1 accesses no tables"},
		{"unknown table", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Accesses[0].Table = "Z" },
			`workload: query T1/q1 references unknown table "Z"`},
		{"bad rows", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Accesses[0].Rows = -1 },
			`workload: query T1/q1 accesses table "R" with non-positive row count -1`},
		{"infinite rows", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Accesses[0].Rows = math.Inf(1) },
			`workload: query T1/q1 accesses table "R" with non-finite row count +Inf`},
		{"NaN rows", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Accesses[0].Rows = math.NaN() },
			`workload: query T1/q1 accesses table "R" with non-finite row count NaN`},
		{"no attributes", func(in *Instance) { in.Workload.Transactions[0].Queries[0].Accesses[0].Attributes = nil },
			`workload: query T1/q1 accesses table "R" but references no attributes`},
		{"unknown attribute", func(in *Instance) {
			in.Workload.Transactions[0].Queries[0].Accesses[0].Attributes = []string{"nope"}
		}, "workload: query T1/q1 references unknown attribute R.nope"},
		{"duplicate attribute ref", func(in *Instance) {
			in.Workload.Transactions[0].Queries[0].Accesses[0].Attributes = []string{"a1", "a1"}
		}, "workload: query T1/q1 references attribute R.a1 twice"},
		{"duplicate table ref", func(in *Instance) {
			q := &in.Workload.Transactions[0].Queries[0]
			q.Accesses = append(q.Accesses, q.Accesses[0])
		}, `workload: query T1/q1 references table "R" twice`},
		// Accesses are checked in order, each one completely before the next:
		// the second access's unknown attribute is reported, not the third
		// access's repeat of the first table.
		{"check order", func(in *Instance) {
			q := &in.Workload.Transactions[0].Queries[0]
			q.Accesses = append(q.Accesses,
				TableAccess{Table: "S", Attributes: []string{"b1", "nope"}, Rows: 1},
				q.Accesses[0])
		}, "workload: query T1/q1 references unknown attribute S.nope"},
		{"duplicate query name", func(in *Instance) {
			in.Workload.Transactions[0].Queries[1].Name = "q1"
		}, `workload: transaction "T1" has two queries named "q1": query 1 (read) and query 2 (write)`},
		// Stamps of earlier queries never match: b1, named by q2 and by q3,
		// is no repeat, while q3's own second b2 is.
		{"repeat in a later query", func(in *Instance) {
			in.Workload.Transactions[1].Queries[0].Accesses[0].Attributes = []string{"b2", "b2"}
		}, "workload: query T2/q3 references attribute S.b2 twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := testInstance()
			tc.mutate(inst)
			err := inst.Workload.Validate(&inst.Schema)
			if err == nil {
				t.Fatalf("expected error %q, got nil", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestWorkloadValidateAllocs: validation allocates per call, never per
// query, so a workload 32 times as large allocates no more.
func TestWorkloadValidateAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		inst := rangeInstance(4, 8, n)
		if err := inst.Workload.Validate(&inst.Schema); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			_ = inst.Workload.Validate(&inst.Schema)
		})
	}
	small, large := allocs(64), allocs(2048)
	t.Logf("allocations per call: %v for 64 queries, %v for 2048", small, large)
	if large > small+2 {
		t.Fatalf("validating 2048 queries allocates %v times, 64 queries %v: want at most %v",
			large, small, small+2)
	}
}

func TestInstanceValidateAndStats(t *testing.T) {
	inst := testInstance()
	if err := inst.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	inst2 := testInstance()
	inst2.Name = ""
	if err := inst2.Validate(); err == nil {
		t.Fatal("instance with empty name accepted")
	}
	st := inst.Stats()
	if st.Tables != 2 || st.Attributes != 5 || st.Transactions != 2 || st.Queries != 3 || st.WriteQueries != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.TotalWidth != 14+20 {
		t.Fatalf("TotalWidth = %d", st.TotalWidth)
	}
	if s := st.String(); !strings.Contains(s, "|A|=5") || !strings.Contains(s, "|T|=2") {
		t.Fatalf("Stats.String = %q", s)
	}
}
