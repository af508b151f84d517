// Package counter holds the table the steady-state fast-forward reads:
// one named entry per cumulative counter of every simulation layer. Each
// layer declares its entries once, in one function, so a snapshot, a
// counter's name and the fast-forward all walk the same layout.
package counter

// Counter is one named counter, read and advanced through a pointer to
// the layer's own field.
type Counter struct {
	Name string
	get  func() int64
	add  func(int64)
}

// Of returns the counter name over the field *p.
func Of[T int | int64 | uint64](name string, p *T) Counter {
	return Counter{
		Name: name,
		get:  func() int64 { return int64(*p) },
		add:  func(d int64) { *p += T(d) },
	}
}

// Table is a fixed counter layout: index i of a snapshot, of a delta
// between two snapshots, and of the table itself name one counter.
type Table []Counter

// Snapshot appends every counter's value to dst, in table order.
func (t Table) Snapshot(dst []int64) []int64 {
	for _, c := range t {
		dst = append(dst, c.get())
	}
	return dst
}

// Advance adds k repetitions of delta, laid out as the table, to the
// counters: the steady-state fast-forward.
func (t Table) Advance(delta []int64, k int64) {
	for i, c := range t {
		c.add(delta[i] * k)
	}
}
