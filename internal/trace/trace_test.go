package trace

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vpart/internal/core"
)

const schemaCSV = `table,attribute,width
Users,id,8
Users,email,40
Users,balance,8
Orders,id,8
Orders,user_id,8
Orders,total,8
`

const workloadCSV = `transaction,query,kind,table,attributes,rows,frequency
Login,getUser,read,Users,id;email,1,100
Checkout,charge,update,Users,id|balance,1,20
Checkout,insertOrder,write,Orders,id;user_id;total,1,20
Report,scanOrders,read,Orders,id;total,50,2
Report,scanOrders,read,Users,id;email,50,2
`

func TestParseSchemaCSV(t *testing.T) {
	schema, err := ParseSchemaCSV(strings.NewReader(schemaCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(schema.Tables) != 2 {
		t.Fatalf("%d tables", len(schema.Tables))
	}
	users, ok := schema.Table("Users")
	if !ok || len(users.Attributes) != 3 || users.Width() != 56 {
		t.Fatalf("Users table wrong: %+v", users)
	}
}

func TestParseSchemaCSVErrors(t *testing.T) {
	cases := []string{
		"Users,id,notanumber\n",
		"Users,,4\n",
		",id,4\n",
		"Users,id\n",               // wrong field count
		"Users,id,4\nUsers,id,8\n", // duplicate attribute
	}
	for i, csv := range cases {
		if _, err := ParseSchemaCSV(strings.NewReader(csv)); err == nil {
			t.Errorf("case %d: invalid schema accepted", i)
		}
	}
}

func TestBuildInstanceFromTrace(t *testing.T) {
	schema, err := ParseSchemaCSV(strings.NewReader(schemaCSV))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := BuildInstance("webshop-trace", schema, strings.NewReader(workloadCSV))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("built instance invalid: %v", err)
	}
	st := inst.Stats()
	if st.Transactions != 3 {
		t.Errorf("|T| = %d, want 3", st.Transactions)
	}
	// Login: 1 query; Checkout: update (2 sub-queries) + insert = 3;
	// Report: one merged query over two tables = 1. Total 5.
	if st.Queries != 5 {
		t.Errorf("%d queries, want 5", st.Queries)
	}
	if st.WriteQueries != 2 {
		t.Errorf("%d write queries, want 2", st.WriteQueries)
	}

	// The Report query must access two tables after merging.
	var report *core.Transaction
	for i := range inst.Workload.Transactions {
		if inst.Workload.Transactions[i].Name == "Report" {
			report = &inst.Workload.Transactions[i]
		}
	}
	if report == nil {
		t.Fatal("Report transaction missing")
	}
	if len(report.Queries) != 1 || len(report.Queries[0].Accesses) != 2 {
		t.Fatalf("Report not merged into one two-table query: %+v", report.Queries)
	}
	if report.Queries[0].Frequency != 2 || report.Queries[0].Accesses[0].Rows != 50 {
		t.Errorf("statistics lost: %+v", report.Queries[0])
	}

	// The whole instance must compile into a model and be solvable.
	m, err := core.NewModel(inst, core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumQueries() != 5 {
		t.Errorf("model has %d queries", m.NumQueries())
	}

	// A query's later rows must reach it after the transaction's next query
	// was appended, which may move the transaction's query slice. A later
	// row that gives a query the other kind is rejected at that row.
	for _, tc := range []struct {
		name, csv string
		accesses  map[string]int // per query name
		err       string         // the error, when the CSV is rejected
	}{
		{"interleaved reads", `T,qA,read,Users,id,1,1
T,qB,read,Users,email,1,1
T,qA,read,Orders,id,1,1
`, map[string]int{"qA": 2, "qB": 1}, ""},
		{"interleaved updates", `T,u,update,Users,id|balance,1,1
T,r,read,Users,email,1,1
T,u,update,Orders,id|total,1,1
`, map[string]int{"u.read": 2, "u.write": 2, "r": 1}, ""},
		{"kind conflict", `T,q,read,Users,id,1,1
T,q,write,Users,email,1,1
`, nil, "trace: workload csv line 2: query T/q is a write, but line 1 made it a read"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := BuildInstance("t", schema, strings.NewReader(tc.csv))
			if tc.err != "" || err != nil {
				if fmt.Sprint(err) != tc.err {
					t.Fatalf("error %v, want %q", err, tc.err)
				}
				return
			}
			got := map[string]int{}
			for _, q := range inst.Workload.Transactions[0].Queries {
				got[q.Name] = len(q.Accesses)
			}
			if !reflect.DeepEqual(got, tc.accesses) {
				t.Fatalf("accesses per query %v, want %v", got, tc.accesses)
			}
		})
	}
}

func TestBuildInstanceUpdateSplit(t *testing.T) {
	schema, _ := ParseSchemaCSV(strings.NewReader(schemaCSV))
	inst, err := BuildInstance("t", schema, strings.NewReader(
		"Checkout,charge,update,Users,id|balance,1,20\n"))
	if err != nil {
		t.Fatal(err)
	}
	txn := inst.Workload.Transactions[0]
	if len(txn.Queries) != 2 {
		t.Fatalf("update not split: %d queries", len(txn.Queries))
	}
	rd, wr := txn.Queries[0], txn.Queries[1]
	if rd.Kind != core.Read || wr.Kind != core.Write {
		t.Fatalf("kinds: %v %v", rd.Kind, wr.Kind)
	}
	if len(rd.Accesses[0].Attributes) != 2 { // id + balance
		t.Errorf("read half attrs: %v", rd.Accesses[0].Attributes)
	}
	if len(wr.Accesses[0].Attributes) != 1 || wr.Accesses[0].Attributes[0] != "balance" {
		t.Errorf("write half attrs: %v", wr.Accesses[0].Attributes)
	}
}

func TestBuildInstanceErrors(t *testing.T) {
	schema, _ := ParseSchemaCSV(strings.NewReader(schemaCSV))
	cases := []string{
		"",                                                       // empty workload
		"Login,q,read,Users,id,notrows,1\n",                      // bad rows
		"Login,q,read,Users,id,1,notfreq\n",                      // bad frequency
		"Login,q,peek,Users,id,1,1\n",                            // unknown kind
		"Login,q,read,Users,,1,1\n",                              // empty attrs
		"Login,q,read,Nope,id,1,1\n",                             // unknown table
		"Login,q,read,Users,nope,1,1\n",                          // unknown attribute
		"Login,q,update,Users,id,1,1\n",                          // update without '|'
		"Login,q,update,Users,id|,1,1\n",                         // update without written attrs
		"Login,q,read,Users,id,1\n",                              // wrong field count
		"Login,q,read,Users,id,1,1\nLogin,q,read,Users,id,1,1\n", // duplicate table ref in one query
	}
	for i, csv := range cases {
		if _, err := BuildInstance("t", schema, strings.NewReader(csv)); err == nil {
			t.Errorf("case %d: invalid workload accepted: %q", i, csv)
		}
	}
}

func TestUpdateWithEmptyReadSide(t *testing.T) {
	schema, _ := ParseSchemaCSV(strings.NewReader(schemaCSV))
	inst, err := BuildInstance("t", schema, strings.NewReader(
		"Job,bump,update,Users,|balance,1,5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Workload.Transactions[0].Queries[0].Accesses[0].Attributes[0] != "balance" {
		t.Error("key-only update not handled")
	}
}
