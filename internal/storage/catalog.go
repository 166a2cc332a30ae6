package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Sentinel errors for catalog operations. The root package re-exports
// them so callers can errors.Is instead of matching message strings.
var (
	// ErrUnknownTable reports a lookup of a table the catalog does not
	// hold.
	ErrUnknownTable = errors.New("unknown table")
	// ErrTableExists reports a CREATE of a name already registered.
	ErrTableExists = errors.New("table already exists")
)

// Catalog is the registry of named tables a query engine instance
// works against.
//
// The catalog also carries the epoch machinery cache layers key on:
// every registered table gets a process-unique id (so a drop+recreate
// under the same name can never alias a stale cache entry) and the
// catalog tracks two epochs. The schema epoch moves on every
// registration, drop, and index change; compiled plans are validated
// against it. The write epoch moves on those and on every data write
// (Table.BumpVersion); the engine checkpoints when it has moved.
// Memoized results embed table id@version pairs in their keys, making
// stale entries unreachable rather than merely invalid.
//
// The catalog is safe for concurrent use: lookups take a read lock,
// DDL (Register/Drop) a write lock. Table contents have their own
// concurrency story (immutable rows during queries, atomics for
// version/quarantine); the catalog lock only guards the name → table
// map.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table

	schemaEpoch atomic.Uint64
	writeEpoch  atomic.Uint64
}

// nextTableID assigns process-unique table ids (catalog-independent so
// results can never collide across catalogs either).
var nextTableID atomic.Uint64

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Register adds (or replaces) a table and bumps both epochs.
func (c *Catalog) Register(t *Table) {
	if t.id == 0 {
		t.id = nextTableID.Add(1)
	}
	t.cat = c
	c.mu.Lock()
	c.tables[t.Name] = t
	c.mu.Unlock()
	c.schemaEpoch.Add(1)
	c.writeEpoch.Add(1)
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: %w: %q", ErrUnknownTable, name)
	}
	return t, nil
}

// Drop removes a table; dropping an absent table is a no-op.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	_, ok := c.tables[name]
	delete(c.tables, name)
	c.mu.Unlock()
	if ok {
		c.schemaEpoch.Add(1)
		c.writeEpoch.Add(1)
	}
}

// Names lists all table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// SchemaEpoch returns the current schema epoch. It changes whenever a
// table is created or dropped, or any table's index set changes —
// exactly the events that can invalidate a compiled plan.
func (c *Catalog) SchemaEpoch() uint64 {
	return c.schemaEpoch.Load()
}

// WriteEpoch returns the current write epoch. It changes whenever the
// schema epoch does and whenever rows are appended to any table —
// exactly the events a checkpoint has something to do after.
func (c *Catalog) WriteEpoch() uint64 {
	return c.writeEpoch.Load()
}
