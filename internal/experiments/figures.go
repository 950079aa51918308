package experiments

import (
	"fmt"
	"math/rand"

	"consensus/internal/andxor"
	"consensus/internal/exact"
	"consensus/internal/genfunc"
	"consensus/internal/numeric"
	"consensus/internal/topk"
	"consensus/internal/types"
	"consensus/internal/workload"
)

// F1a reproduces Figure 1(i): the world-size generating function of the
// four-block BID database is 0.08 x^2 + 0.44 x^3 + 0.48 x^4.
func F1a() Result {
	p := genfunc.WorldSizeDist(andxor.Figure1i())
	want := []float64{0, 0, 0.08, 0.44, 0.48}
	pass := len(p) == len(want)
	table := [][]string{{"world size", "paper", "computed"}}
	for i := 0; i < len(want) || i < len(p); i++ {
		var w float64
		if i < len(want) {
			w = want[i]
		}
		got := p.Coeff(i)
		if !numeric.AlmostEqual(got, w, 1e-12) {
			pass = false
		}
		table = append(table, []string{fmt.Sprint(i), fmtFloat(w), fmtFloat(got)})
	}
	return Result{
		ID:       "F1a",
		Title:    "Figure 1(i): world-size generating function of the BID example",
		Claim:    "F(x) = 0.08x^2 + 0.44x^3 + 0.48x^4",
		Measured: fmt.Sprintf("coefficients %v", []float64{p.Coeff(2), p.Coeff(3), p.Coeff(4)}),
		Pass:     pass,
		Table:    table,
	}
}

// F1b reproduces Figure 1(ii)+(iii): the and/xor tree encodes exactly the
// three correlated worlds with probabilities 0.3/0.3/0.4, and the rank
// generating function for the alternative (t3, 6) has y-coefficient 0.3 =
// Pr(that alternative is ranked first).
func F1b() Result {
	tr := andxor.Figure1iii()
	ws := exact.MustEnumerate(tr)
	pass := len(ws) == 3
	table := [][]string{{"world", "paper prob", "computed prob"}}
	for _, want := range andxor.Figure1Worlds() {
		got := andxor.WorldProb(tr, want.World)
		if !numeric.AlmostEqual(got, want.Prob, 1e-12) {
			pass = false
		}
		table = append(table, []string{want.World.String(), fmtFloat(want.Prob), fmtFloat(got)})
	}
	target := types.Leaf{Key: "t3", Score: 6}
	coefY := genfunc.Compile(tr).Coefficient(func(i int, l types.Leaf) (int, int) {
		if l == target {
			return 0, 1
		}
		if l.Key != target.Key && l.Score > target.Score {
			return 1, 0
		}
		return 0, 0
	}, 0, 1)
	if !numeric.AlmostEqual(coefY, 0.3, 1e-12) {
		pass = false
	}
	table = append(table, []string{"coefficient of y (Pr(r((t3,6))=1))", "0.3", fmtFloat(coefY)})
	return Result{
		ID:       "F1b",
		Title:    "Figure 1(ii)+(iii): correlated worlds and the rank generating function",
		Claim:    "3 worlds with probs .3/.3/.4; coefficient of y = 0.3",
		Measured: fmt.Sprintf("%d worlds; coefficient of y = %s", len(ws), fmtFloat(coefY)),
		Pass:     pass,
		Table:    table,
	}
}

// F2 verifies the Figure 2 rewriting of E[F*(tau, tau_pw)] against
// brute-force enumeration on random nested trees, using the corrected
// sign of Upsilon3 (the paper's bullet has "+ i Pr(r(t)>k)"; the
// derivation requires "-", see internal/topk/footrule.go).
func F2() Result {
	rng := rand.New(rand.NewSource(2009))
	const trials = 20
	k := 2
	maxErr := 0.0
	checked := 0
	for trial := 0; trial < trials; trial++ {
		tr := workload.Nested(rng, 3+rng.Intn(3), 2)
		rd, err := genfunc.Ranks(tr, k)
		if err != nil {
			continue
		}
		u := topk.NewUpsilons(rd, k)
		ws := exact.MustEnumerate(tr)
		keys := tr.Keys()
		for i := 0; i < len(keys); i++ {
			for j := 0; j < len(keys); j++ {
				if i == j {
					continue
				}
				tau := topk.List{keys[i], keys[j]}
				closed := topk.ExpectedFootrule(rd, u, tau, k)
				brute := exact.ExpectedOver(ws, func(w *types.World) float64 {
					return topk.Footrule(tau, topk.FromWorld(w, k), k)
				})
				if d := abs(closed - brute); d > maxErr {
					maxErr = d
				}
				checked++
			}
		}
	}
	return Result{
		ID:       "F2",
		Title:    "Figure 2: closed form of E[F*(tau, tau_pw)]",
		Claim:    "E[F*] = C + sum_i f(tau(i), i) with f from Upsilon1..3 (sign-corrected Upsilon3)",
		Measured: fmt.Sprintf("%d candidate lists on %d random trees; max |closed - enumeration| = %.2e", checked, trials, maxErr),
		Pass:     maxErr < 1e-9 && checked > 0,
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
