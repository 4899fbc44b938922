package main

import (
	"fmt"
	"math/rand"

	"hardtape/internal/baseline"
	"hardtape/internal/node"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// worldConfig sizes the synthetic world every workload runs against.
// The generator and the program build it apart, from the same seed.
func worldConfig(seed int64) workload.Config {
	return workload.Config{Seed: seed, EOAs: 32, Tokens: 4, DEXes: 2}
}

// Workload make-up. Pool sizes bound signing time at start-up; a run
// cycles through its pool in order, so every run of a workload repeats
// the same operations.
const (
	evalPool     = 384
	mevPool      = 48
	mevBundleTxs = 16
	mevConflict  = 0.25
	churnPool    = 128
	// churnColdEvery makes every fourth connection a new user's
	// attested cold dial; the other three resume from a ticket.
	churnColdEvery = 4
)

// opInput is one user operation's bundle together with everything the
// program's output is checked against: the reference executor's traces
// and the closed-form properties of the generated transactions.
type opInput struct {
	bundle *types.Bundle
	ref    []*tracer.TxTrace
	gas    uint64
	props  []property
}

// generator holds the world the inputs are signed against and the
// reference executor that computes their expected traces. It shares
// nothing with the program under test but the interpreter package.
type generator struct {
	world *workload.World
	geth  *baseline.Geth
}

func newGenerator(seed int64) (*generator, error) {
	w, err := workload.BuildWorld(worldConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("generator world: %w", err)
	}
	chain, err := node.New(w.State)
	if err != nil {
		return nil, fmt.Errorf("generator node: %w", err)
	}
	return &generator{
		world: w,
		geth:  baseline.NewGeth(w.State, workload.NewBlockContext(&chain.Head().Header)),
	}, nil
}

// finish runs the bundle on the reference executor and attaches the
// expected traces.
func (g *generator) finish(b *types.Bundle, props []property) (*opInput, error) {
	ref, err := g.geth.ExecuteBundle(b)
	if err != nil {
		return nil, fmt.Errorf("reference execution: %w", err)
	}
	in := &opInput{bundle: b, ref: ref.Trace.Txs, gas: ref.GasUsed, props: props}
	// The generator's own properties must hold on the reference, or the
	// property (not the program) is wrong.
	if err := in.checkProps(ref.Trace); err != nil {
		return nil, fmt.Errorf("reference violates a closed-form property: %w", err)
	}
	return in, nil
}

// evalMixInputs draws the Table I evaluation mix, one transaction per
// bundle, every sender at its canonical nonce.
func evalMixInputs(seed int64) ([]*opInput, error) {
	g, err := newGenerator(seed)
	if err != nil {
		return nil, err
	}
	pool := make([]*opInput, 0, evalPool)
	for len(pool) < evalPool {
		// Every bundle runs against the same pinned state, so each
		// transaction is drawn at its sender's canonical nonce.
		g.world.SyncNonces(g.world.State)
		tx, kind, err := g.world.GenerateTx()
		if err != nil {
			return nil, fmt.Errorf("eval-mix tx: %w", err)
		}
		props, err := txProperties(tx, kind)
		if err != nil {
			return nil, err
		}
		in, err := g.finish(&types.Bundle{Txs: []*types.Transaction{tx}}, props)
		if err != nil {
			return nil, err
		}
		pool = append(pool, in)
	}
	return pool, nil
}

// mevLanesInputs draws searcher bundles: the generator's 16-transaction
// MEV bundle with a quarter of its transactions swapping on one pool,
// each pool entry a seeded reordering of it, so the hot swaps land at
// different positions and fold the reserves in a different order.
func mevLanesInputs(seed int64) ([]*opInput, error) {
	g, err := newGenerator(seed)
	if err != nil {
		return nil, err
	}
	base, err := g.world.MEVBundle(mevBundleTxs, mevConflict)
	if err != nil {
		return nil, fmt.Errorf("mev bundle: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	hotPool := g.world.DEXes[0]
	pool := make([]*opInput, 0, mevPool)
	for len(pool) < mevPool {
		txs := append([]*types.Transaction(nil), base.Txs...)
		rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })
		b := &types.Bundle{Txs: txs}
		props := []property{poolFold(hotPool, b)}
		in, err := g.finish(b, props)
		if err != nil {
			return nil, err
		}
		pool = append(pool, in)
	}
	return pool, nil
}

// sessionChurnInputs draws small transfer bundles between seeded EOAs:
// alternately a plain ETH transfer, and an ERC-20 transfer followed by
// balanceOf reads of both parties.
func sessionChurnInputs(seed int64) ([]*opInput, error) {
	g, err := newGenerator(seed)
	if err != nil {
		return nil, err
	}
	w := g.world
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*opInput, 0, churnPool)
	for len(pool) < churnPool {
		from := w.EOAs[rng.Intn(len(w.EOAs))]
		to := w.EOAs[rng.Intn(len(w.EOAs))]
		amount := uint64(rng.Intn(1000) + 1)
		var (
			txs   []*types.Transaction
			props []property
		)
		if len(pool)%2 == 0 {
			tx, err := w.SignedTxAt(from, 0, &to, amount, nil, 40_000)
			if err != nil {
				return nil, fmt.Errorf("session-churn tx: %w", err)
			}
			txs, props = []*types.Transaction{tx}, []property{plainTransfer(0)}
		} else {
			// A token transfer, then the two balances read back, since
			// the trace names the slots written but not their values.
			// Tokens in rotation, so every seed's pool holds each
			// token's code size equally often.
			token := w.Tokens[len(pool)/2%len(w.Tokens)]
			calls := [][]byte{
				workload.CalldataTransfer(to, amount),
				workload.CalldataBalanceOf(from),
				workload.CalldataBalanceOf(to),
			}
			for n, data := range calls {
				tx, err := w.SignedTxAt(from, uint64(n), &token, 0, data, 120_000)
				if err != nil {
					return nil, fmt.Errorf("session-churn tx: %w", err)
				}
				txs = append(txs, tx)
			}
			props = append([]property{tokenTransfer(0, token, from, to)}, transferReadBack(1, from, to, amount)...)
		}
		in, err := g.finish(&types.Bundle{Txs: txs}, props)
		if err != nil {
			return nil, err
		}
		pool = append(pool, in)
	}
	return pool, nil
}
