package storage

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/disk"
	"aurora/internal/netsim"
)

// The lock rule: a node holds n.mu only for in-memory work. Every simulated
// wait — a disk call or a network send — happens outside it, so background
// IO never stalls the foreground filing step behind it (§3.3: only steps 1
// and 2 of Figure 4 are in the foreground path). The tests below hold one
// wait at a time and check that a node still files an Ingest and serves a
// read meanwhile; the static guard keeps the rule from coming back.

// Distinct per-kind durations tell the waits apart at the sleeper. The disk
// has no bandwidth term, so each call sleeps exactly its kind's duration: a
// background write 1 µs, a read 2 µs, an Ingest's durable append (write and
// flush in one wait) 4 µs.
var gateDisk = disk.Config{WriteLatency: 1 * time.Microsecond, ReadLatency: 2 * time.Microsecond, SyncLatency: 3 * time.Microsecond}

// diskGate is a disk sleeper that, once armed, blocks the first wait of the
// armed duration until released; every other wait returns at once.
type diskGate struct {
	mu      sync.Mutex
	armed   time.Duration
	held    chan struct{} // closed when the armed wait begins
	release chan struct{}
}

func (g *diskGate) sleep(d time.Duration) {
	g.mu.Lock()
	hit := g.armed != 0 && d == g.armed
	held, release := g.held, g.release
	if hit {
		g.armed = 0
	}
	g.mu.Unlock()
	if hit {
		close(held)
		<-release
	}
}

func (g *diskGate) arm(d time.Duration) (held, release chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed, g.held, g.release = d, make(chan struct{}), make(chan struct{})
	return g.held, g.release
}

// gatedNode returns a node on a gated disk with pages 1 and 2 filed (LSNs up
// to the returned tail, PGMRPL there too, so the next round folds them), and
// a fresh batch above them that has not been delivered.
func gatedNode(t *testing.T, role core.ReplicaRole) (*Node, *diskGate, core.LSN, core.BatchView) {
	t.Helper()
	n := NewNode(Config{Seg: core.SegmentID{PG: 0}, Node: "gated", Net: netsim.New(netsim.FastLocal()), Disk: gateDisk, Role: role})
	g := &diskGate{}
	n.Disk().SetSleeper(g.sleep)
	f := core.NewFramer(core.NewAllocator(core.ZeroLSN, 0), nil)
	m := &core.MTR{Txn: 1}
	m.AddDelta(0, 1, 0, []byte("one"))
	m.AddDelta(0, 2, 0, []byte("two"))
	v := frame(t, f, m)[0]
	if _, err := receiveBatch(n, context.Background(), v, v.Last(), v.Last()); err != nil {
		t.Fatal(err)
	}
	fresh := &core.MTR{Txn: 2}
	fresh.AddDelta(0, 1, 8, []byte("fresh"))
	return n, g, v.Last(), frame(t, f, fresh)[0]
}

// whileHeld starts op, waits until op is inside the armed wait, and then
// requires an Ingest of fresh and a read of page 1 at readPoint to finish
// within a second, and op not to have returned meanwhile: the wait moves off
// the lock, not out of the call. It releases the wait and waits for
// everything it started before returning. readErr is the error the read is
// expected to return (nil for a served page).
func whileHeld(t *testing.T, n *Node, g *diskGate, wait time.Duration, name string, op func() error, fresh core.BatchView, readPoint core.LSN, readErr error) {
	t.Helper()
	held, release := g.arm(wait)
	var wg sync.WaitGroup
	defer wg.Wait()
	run := func(f func() error) chan error {
		done := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			done <- f()
		}()
		return done
	}
	opDone := run(op)
	select {
	case <-held:
	case err := <-opDone:
		close(release)
		t.Fatalf("%s returned (%v) without reaching its wait", name, err)
	}

	ctx := context.Background()
	ingestDone := run(func() error {
		_, err := receiveBatch(n, ctx, fresh, fresh.Last(), 0)
		return err
	})
	readDone := run(func() error {
		_, err := n.ReadPage(ctx, 1, readPoint, 0)
		return err
	})
	deadline, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	for _, c := range []struct {
		what string
		done chan error
		want error
	}{{"an Ingest of a fresh batch", ingestDone, nil}, {"a ReadPage", readDone, readErr}} {
		var err error
		finished := true
		select {
		case err = <-c.done:
		case <-deadline.Done():
			select { // the deadline is shared: take a result that is already in
			case err = <-c.done:
			default:
				finished = false
			}
		}
		if !finished {
			t.Errorf("%s did not finish within 1s while %s was held on the disk: it waits for the node's lock", c.what, name)
		} else if !errors.Is(err, c.want) {
			t.Errorf("%s while %s was held: %v, want %v", c.what, name, err, c.want)
		}
	}
	select {
	case err := <-opDone:
		close(release)
		t.Errorf("%s returned (%v) while its wait was held", name, err)
		return
	default:
	}
	close(release)
	if err := <-opDone; err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// TestCoalescePageWriteOutsideLock holds a coalesce round's page write.
func TestCoalescePageWriteOutsideLock(t *testing.T) {
	n, g, tail, fresh := gatedNode(t, core.RoleFull)
	whileHeld(t, n, g, gateDisk.WriteLatency, "the coalesce page write", func() error {
		if adv := n.CoalesceOnce(); adv != 2 {
			return fmt.Errorf("round advanced %d pages, want 2", adv)
		}
		return nil
	}, fresh, tail, nil)
	if got := n.Disk().Stats().Writes; got != 2+2 {
		t.Fatalf("%d disk writes, want one per delivered batch and one per advanced page (4)", got)
	}
}

// TestReadDiskReadOutsideLock holds a page read's disk read.
func TestReadDiskReadOutsideLock(t *testing.T) {
	n, g, tail, fresh := gatedNode(t, core.RoleFull)
	whileHeld(t, n, g, gateDisk.ReadLatency, "a page read's disk read", func() error {
		_, err := n.ReadPage(context.Background(), 2, tail, tail)
		return err
	}, fresh, tail, nil)
}

// TestLogGCWriteOutsideLock holds the log tier's write of its GC boundary. A
// log replica refuses page reads outright; the Ingest is the check that
// matters here.
func TestLogGCWriteOutsideLock(t *testing.T) {
	n, g, tail, fresh := gatedNode(t, core.RoleLog)
	whileHeld(t, n, g, gateDisk.WriteLatency, "the log tier's GC write", func() error {
		n.CoalesceOnce()
		if got := n.GCTail(); got != tail {
			return fmt.Errorf("GC tail %d, want %d", got, tail)
		}
		return nil
	}, fresh, tail, ErrWrongTier)
}

// TestTruncateWriteOutsideLock holds the write that persists a truncation.
// Truncate is recovery's ordering point: whileHeld also checks it does not
// return before that write is done.
func TestTruncateWriteOutsideLock(t *testing.T) {
	n, g, tail, fresh := gatedNode(t, core.RoleFull)
	whileHeld(t, n, g, gateDisk.WriteLatency, "Truncate's write", func() error {
		return n.Truncate(core.TruncationRange{Epoch: 1, From: tail, To: tail + 100})
	}, fresh, tail, nil)
	// The truncation was in force before its write: the fresh batch's
	// records fall inside the annulled range.
	if s := n.Stats(); s.RecordsHeld != 2 {
		t.Fatalf("%d records held, want 2", s.RecordsHeld)
	}
}

// TestNoSimulatedWaitUnderSegmentLock is the static half of the lock rule:
// in the package's non-test files, no function whose name ends in Locked and
// no function that defers n.mu.Unlock() calls the SSD (n.ssd.*) or sends on
// the simulated network (Net.Send*).
func TestNoSimulatedWaitUnderSegmentLock(t *testing.T) {
	// The guard must fire on what it guards against.
	bad := `package storage
func (n *Node) fooLocked() { n.ssd.Write(64) }
func (n *Node) Bar() { n.mu.Lock(); defer n.mu.Unlock(); n.cfg.Net.Send(ctx, a, b, 1) }
func (n *Node) Baz() { n.mu.Lock(); x := 1; n.mu.Unlock(); n.ssd.Read(x) }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "bad.go", bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := lockRuleViolations(fset, f); len(got) != 2 {
		t.Fatalf("guard found %d violations in a source with two: %v", len(got), got)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		v, c := lockRuleViolations(fset, f)
		checked += c
		for _, msg := range v {
			t.Error(msg)
		}
	}
	if checked < 10 {
		t.Fatalf("checked only %d functions under the lock: is the package there?", checked)
	}
}

// lockRuleViolations returns the lock-rule violations in f and how many
// functions it checked.
func lockRuleViolations(fset *token.FileSet, f *ast.File) (violations []string, checked int) {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !(strings.HasSuffix(fn.Name.Name, "Locked") || defersUnlock(fn.Body)) {
			continue
		}
		checked++
		ast.Inspect(fn.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv, ok := sel.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv.Sel.Name == "ssd" || (recv.Sel.Name == "Net" && strings.HasPrefix(sel.Sel.Name, "Send")) {
				violations = append(violations, fmt.Sprintf("%s: %s calls %s.%s under the node's lock",
					fset.Position(call.Pos()), fn.Name.Name, recv.Sel.Name, sel.Sel.Name))
			}
			return true
		})
	}
	return violations, checked
}

// defersUnlock reports whether body defers n.mu.Unlock().
func defersUnlock(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		d, ok := x.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Unlock" {
			if mu, ok := sel.X.(*ast.SelectorExpr); ok && mu.Sel.Name == "mu" {
				if id, ok := mu.X.(*ast.Ident); ok && id.Name == "n" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
