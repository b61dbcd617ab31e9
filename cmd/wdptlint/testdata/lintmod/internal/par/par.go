// Package par is the fixture stand-in for the worker-pool substrate. The
// R10 call-graph half matches sinks and carriers by module-relative path, so
// this package supplies par.(*Pool).Run and par.Map at the paths R10
// expects; the package itself is exempt from R10 and R11 (it implements the
// cancellation machinery rather than consuming it).
package par

// Pool is the fixture worker pool; a *Pool parameter marks a function as a
// cancellation carrier for R10.
type Pool struct{ workers int }

// New returns a fixture pool.
func New(workers int) *Pool { return &Pool{workers: workers} }

// Run is a cancellable sink for R10.
func (p *Pool) Run(task func()) { task() }

// Map is the other fan-out sink.
func Map(n int, f func(int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}
