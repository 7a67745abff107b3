package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aurora/internal/disk"
	"aurora/internal/netsim"
	"aurora/internal/workload"
)

// TestEnginesAgree drives one seeded statement sequence through the Aurora
// engine and the MySQL baseline and compares every Get and Scan result, inside
// the writing transaction and from a bystander that must see none of it.
// The two share their transaction front end by construction (txn.WriteSet);
// this pins that what sits under it — redo to a quorum fleet on one side,
// WAL, binlog, page flushes and checkpoints on the other — never shows
// through it. A model map keeps the pair honest against agreeing on a wrong
// answer.
func TestEnginesAgree(t *testing.T) {
	au, err := NewAurora(AuroraConfig{PGs: 2, CachePages: 4, Net: netsim.FastLocal(), Disk: disk.FastLocal()})
	if err != nil {
		t.Fatal(err)
	}
	defer au.Close()
	my, err := NewMySQL(MySQLConfig{CachePages: 4, Net: netsim.FastLocal(), Disk: disk.FastLocal(), Checkpoint: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer my.Close()
	dbs := []workload.DB{au.WL(), my.WL()}

	type result struct {
		Val   string
		Found bool
		Rows  []string
		Err   string
	}
	errStr := func(err error) string {
		if err != nil {
			return err.Error()
		}
		return ""
	}
	get := func(tx workload.Tx, key []byte) result {
		v, ok, err := tx.Get(key)
		return result{Val: string(v), Found: ok, Err: errStr(err)}
	}
	scan := func(tx workload.Tx, from, to []byte, limit int) result {
		var r result
		r.Err = errStr(tx.Scan(from, to, func(k, v []byte) bool {
			r.Rows = append(r.Rows, string(k)+"="+string(v))
			return limit == 0 || len(r.Rows) < limit
		}))
		return r
	}
	// both runs one statement on each system and fails unless they agree.
	both := func(what string, txs []workload.Tx, stmt func(workload.Tx) result) result {
		t.Helper()
		a, b := stmt(txs[0]), stmt(txs[1])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: aurora %+v, mysql %+v", what, a, b)
		}
		return a
	}

	rng := rand.New(rand.NewSource(24))
	key := func() []byte { return []byte(fmt.Sprintf("k%03d", rng.Intn(200))) }
	model := map[string]string{}
	for n := 0; n < 300; n++ {
		txs := []workload.Tx{dbs[0].Begin(), dbs[1].Begin()}
		pending := map[string]*string{} // nil = deleted
		for s, stmts := 0, 1+rng.Intn(6); s < stmts; s++ {
			k := key()
			switch op := rng.Intn(10); {
			case op < 4:
				v := fmt.Sprintf("v%d.%d-%0*d", n, s, rng.Intn(400), 0)
				both("put "+string(k), txs, func(tx workload.Tx) result { return result{Err: errStr(tx.Put(k, []byte(v)))} })
				pending[string(k)] = &v
			case op < 6:
				both("delete "+string(k), txs, func(tx workload.Tx) result { return result{Err: errStr(tx.Delete(k))} })
				pending[string(k)] = nil
			case op < 8:
				r := both("get "+string(k), txs, func(tx workload.Tx) result { return get(tx, k) })
				want, ok := model[string(k)]
				if p, touched := pending[string(k)]; touched {
					want, ok = "", p != nil
					if ok {
						want = *p
					}
				}
				if r.Found != ok || r.Val != want {
					t.Fatalf("txn %d get %s = %q %v, model says %q %v", n, k, r.Val, r.Found, want, ok)
				}
			default:
				from, to, limit := key(), key(), rng.Intn(4)
				if rng.Intn(4) == 0 {
					from = nil
				}
				if rng.Intn(4) == 0 {
					to = nil
				}
				both(fmt.Sprintf("scan [%s,%s) limit %d", from, to, limit), txs,
					func(tx workload.Tx) result { return scan(tx, from, to, limit) })
			}
		}
		// A bystander sees only committed state on both systems.
		by := []workload.Tx{dbs[0].Begin(), dbs[1].Begin()}
		if r := both("bystander scan", by, func(tx workload.Tx) result { return scan(tx, nil, nil, 0) }); len(r.Rows) != len(model) {
			t.Fatalf("txn %d: bystander saw %d rows, %d committed", n, len(r.Rows), len(model))
		}
		by[0].Abort()
		by[1].Abort()

		if rng.Intn(5) == 0 {
			txs[0].Abort()
			txs[1].Abort()
			continue
		}
		both("commit", txs, func(tx workload.Tx) result { return result{Err: errStr(tx.Commit())} })
		for k, v := range pending {
			if v == nil {
				delete(model, k)
			} else {
				model[k] = *v
			}
		}
	}

	final := []workload.Tx{dbs[0].Begin(), dbs[1].Begin()}
	r := both("final scan", final, func(tx workload.Tx) result { return scan(tx, nil, nil, 0) })
	if len(r.Rows) != len(model) {
		t.Fatalf("final scan has %d rows, model %d", len(r.Rows), len(model))
	}
	for _, row := range r.Rows {
		k, v := row[:4], row[5:]
		if model[k] != v {
			t.Fatalf("final %s = %q, model %q", k, v, model[k])
		}
	}
	if st := my.DB.Stats(); st.Checkpoints == 0 || st.Cache.Evictions == 0 {
		t.Fatalf("baseline never checkpointed or evicted (%+v): the sequence did not reach what differs", st)
	}
	if st := au.DB.Stats(); st.Cache.Evictions == 0 {
		t.Fatalf("engine never evicted (%+v)", st.Cache)
	}
}
