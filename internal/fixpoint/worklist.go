package fixpoint

// fifo is a FIFO worklist with membership bits, for step functions whose
// convergence does not benefit from value ordering (CC, Sim).
type fifo struct {
	q  []Var
	in []bool
}

func newFifo(n int) *fifo { return &fifo{in: make([]bool, n)} }

func (f *fifo) Len() int { return len(f.q) }

// Grow extends the handle space to n variables.
func (f *fifo) Grow(n int) {
	for len(f.in) < n {
		f.in = append(f.in, false)
	}
}

func (f *fifo) AddOrAdjust(x Var) {
	if !f.in[x] {
		f.in[x] = true
		f.q = append(f.q, x)
	}
}

func (f *fifo) Pop() (Var, bool) {
	if len(f.q) == 0 {
		return 0, false
	}
	x := f.q[0]
	f.q = f.q[1:]
	f.in[x] = false
	return x, true
}

// worklist abstracts the scope H of the step function.
type worklist interface {
	Len() int
	AddOrAdjust(x Var)
	Pop() (Var, bool)
	Grow(n int)
}
