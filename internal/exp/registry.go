package exp

// Experiment is one registered table/figure reproduction. The registry is
// the single source of truth for experiment IDs and per-experiment workload
// scaling: cmd/cubebench and bench_test.go both draw from it, so a figure
// benchmarked in CI runs the exact Config a user gets from the CLI.
type Experiment struct {
	// ID as used by `cubebench -exp` and in DESIGN.md/EXPERIMENTS.md
	// (e.g. "fig4.2").
	ID string
	// Title is a one-line description for listings.
	Title string
	// Run reproduces the table/figure at the given scale.
	Run func(Config) (*Table, error)
	// scale adjusts a reduced-size base Config for this experiment (nil =
	// identity). It is not applied to the zero Config, which means "the
	// paper's full sizes".
	scale func(Config) Config
}

// Scaled returns the Config this experiment should run at, given a base
// Config. A zero-Tuples base (full paper sizes) passes through untouched.
func (e Experiment) Scaled(c Config) Config {
	if e.scale == nil || c.Tuples == 0 {
		return c
	}
	return e.scale(c)
}

// Experiments returns the registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1.1", Title: "CUBE result sizes (Table 1.1)",
			Run: func(Config) (*Table, error) { return Table1_1(), nil }},
		{ID: "fig3.6", Title: "sequential I/O strategies (Fig 3.6)", Run: Fig3_6},
		{ID: "fig4.1", Title: "data-set load time (Fig 4.1)", Run: Fig4_1},
		{ID: "fig4.2", Title: "speedup with processors (Fig 4.2)", Run: Fig4_2},
		{ID: "fig4.3", Title: "scale-up with tuples (Fig 4.3)", Run: Fig4_3,
			// The sweep itself multiplies the base size up to 5.66×.
			scale: func(c Config) Config { c.Tuples /= 2; return c }},
		{ID: "fig4.4", Title: "dimensionality sweep (Fig 4.4)", Run: Fig4_4,
			// 13 dimensions = 8192 cuboids; halve the rows to compensate.
			scale: func(c Config) Config { c.Tuples /= 2; return c }},
		{ID: "fig4.5", Title: "minimum-support sweep (Fig 4.5)", Run: Fig4_5},
		{ID: "fig4.6", Title: "sparseness sweep (Fig 4.6)", Run: Fig4_6},
		{ID: "sec5.1", Title: "online-aggregation accuracy (§5.1)", Run: Sec5_1},
		{ID: "fig5.3", Title: "POL scalability (Fig 5.3)", Run: Fig5_3,
			// POL streams tuples through skip lists without materializing
			// cuboids, so it sustains a 10× larger feed at the same cost.
			scale: func(c Config) Config { c.Tuples *= 10; return c }},
		{ID: "fig5.4", Title: "POL buffer-size sweep (Fig 5.4)", Run: Fig5_4,
			scale: func(c Config) Config { c.Tuples *= 10; return c }},
		{ID: "cores", Title: "intra-worker cores wall-clock speedup", Run: Cores,
			// Real-time measurement wants enough rows for the kernels to
			// fork; don't shrink below the bench scale.
			scale: func(c Config) Config {
				if c.Tuples < 8000 {
					c.Tuples = 8000
				}
				return c
			}},
	}
}

// ByID finds an experiment by its ID (case-sensitive match on the
// registry's IDs).
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
