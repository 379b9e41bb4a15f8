package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"poiagg/internal/experiments"
	"poiagg/internal/index"
)

// repro-sweep: what one poirepro invocation costs a researcher. Each
// pass builds a fresh quick-scale Env from the seed (so city generation
// is inside the pass) and runs a pinned list of figure drivers; the list
// is pinned, not "all", so figures added later do not change the work.
var reproFigures = []string{"datasets", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "ext-robust"}

// figureDigits is the precision figures are compared at. Fig 2 averages
// a map (attack.Recoverer.ValidationAccuracy) in iteration order, so its
// means differ in the last bits from pass to pass and its CSV bytes do
// not repeat; at 10 significant digits every pinned figure does.
const figureDigits = 10

// reproPass is one pass's timings and the hash of its figure values.
type reproPass struct {
	total   time.Duration
	cities  time.Duration
	figures map[string]time.Duration
	figHash string
}

func runReproPass(ctx context.Context, seed uint64, tr *tracer) (reproPass, error) {
	p := reproPass{figures: make(map[string]time.Duration)}
	ctx, endPass := tr.begin(ctx, "experiments.pass")
	defer endPass()
	start := time.Now()
	env := experiments.NewEnv(experiments.Config{Seed: seed, Scale: experiments.ScaleQuick})

	_, endCities := tr.begin(ctx, "citygen.generate")
	for _, name := range []string{"beijing", "nyc"} {
		c, err := env.City(name)
		if err != nil {
			return p, err
		}
		if tr != nil {
			c.City.WrapIndex(func(ix index.Index) index.Index { return tr.wrapIndex(ix) })
		}
	}
	endCities()
	p.cities = time.Since(start)

	reg := experiments.Registry()
	var rows strings.Builder
	for _, id := range reproFigures {
		if err := ctx.Err(); err != nil {
			return p, err
		}
		_, endFig := tr.begin(ctx, "experiments.fig"+id)
		t0 := time.Now()
		fig, err := reg[id](env)
		p.figures[id] = time.Since(t0)
		endFig()
		if err != nil {
			return p, fmt.Errorf("figure %s: %w", id, err)
		}
		for _, se := range fig.Series {
			for i := range se.X {
				fmt.Fprintf(&rows, "%s,%q,%s,%s\n", fig.ID, se.Name,
					strconv.FormatFloat(se.X[i], 'g', figureDigits, 64),
					strconv.FormatFloat(se.Y[i], 'g', figureDigits, 64))
			}
		}
	}
	p.total = time.Since(start)
	sum := sha256.Sum256([]byte(rows.String()))
	p.figHash = hex.EncodeToString(sum[:])
	return p, nil
}
