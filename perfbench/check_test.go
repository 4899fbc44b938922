package main

import (
	"bytes"
	"encoding/gob"
	"testing"

	"hardtape/internal/core"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// clone deep-copies a bundle trace so a test can alter one value.
func clone(t *testing.T, tr *tracer.BundleTrace) *tracer.BundleTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
		t.Fatal(err)
	}
	var out tracer.BundleTrace
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// served wraps the reference traces as the service would return them.
func served(in *opInput) *core.TraceResult {
	return &core.TraceResult{
		Trace:       &tracer.BundleTrace{Txs: in.ref},
		VirtualTime: 1,
		GasUsed:     in.gas,
	}
}

// single builds a one-transaction input of the given archetype.
func single(t *testing.T, g *generator, kind workload.TxKind) *opInput {
	t.Helper()
	w := g.world
	from, to, token := w.EOAs[1], w.EOAs[2], w.Tokens[0]
	var (
		tx  *types.Transaction
		err error
	)
	switch kind {
	case workload.TxSimpleTransfer:
		tx, err = w.SignedTxAt(from, 0, &to, 7, nil, 40_000)
	case workload.TxERC20BalanceOf:
		tx, err = w.SignedTxAt(from, 0, &token, 0, workload.CalldataBalanceOf(from), 80_000)
	case workload.TxERC20Transfer:
		tx, err = w.SignedTxAt(from, 0, &token, 0, workload.CalldataTransfer(to, 9), 120_000)
	}
	if err != nil {
		t.Fatal(err)
	}
	props, err := txProperties(tx, kind)
	if err != nil {
		t.Fatal(err)
	}
	in, err := g.finish(&types.Bundle{Txs: []*types.Transaction{tx}}, props)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// expectRejected asserts that both the named property and the whole
// result check reject the altered trace, and that the unaltered
// reference passes.
func expectRejected(t *testing.T, in *opInput, p property, alter func(tr *tracer.BundleTrace)) {
	t.Helper()
	if err := in.checkResult(served(in)); err != nil {
		t.Fatalf("reference rejected: %v", err)
	}
	bad := clone(t, &tracer.BundleTrace{Txs: in.ref})
	alter(bad)
	if err := p(bad); err == nil {
		t.Error("property accepted the altered trace")
	}
	res := served(in)
	res.Trace = bad
	if err := in.checkResult(res); err == nil {
		t.Error("result check accepted the altered trace")
	}
}

func TestPlainTransferRejectsAlteredGas(t *testing.T) {
	g, err := newGenerator(3)
	if err != nil {
		t.Fatal(err)
	}
	in := single(t, g, workload.TxSimpleTransfer)
	expectRejected(t, in, plainTransfer(0), func(tr *tracer.BundleTrace) { tr.Txs[0].GasUsed++ })
}

func TestBalanceOfRejectsAlteredReturn(t *testing.T) {
	g, err := newGenerator(3)
	if err != nil {
		t.Fatal(err)
	}
	in := single(t, g, workload.TxERC20BalanceOf)
	expectRejected(t, in, balanceIs(0, genesisTokenBalance), func(tr *tracer.BundleTrace) { tr.Txs[0].ReturnData[31] ^= 1 })
}

func TestTokenTransferRejectsAlteredSlot(t *testing.T) {
	g, err := newGenerator(3)
	if err != nil {
		t.Fatal(err)
	}
	in := single(t, g, workload.TxERC20Transfer)
	w := g.world
	p := tokenTransfer(0, w.Tokens[0], w.EOAs[1], w.EOAs[2])
	expectRejected(t, in, p, func(tr *tracer.BundleTrace) {
		for i, a := range tr.Txs[0].Storage {
			if a.Write && a.Slot == balanceSlot(w.EOAs[2]) {
				tr.Txs[0].Storage[i].Slot = balanceSlot(w.EOAs[3])
			}
		}
	})
}

func TestTransferReadBackRejectsAlteredBalance(t *testing.T) {
	pool, err := sessionChurnInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	in := pool[1] // a token transfer with both balances read back
	if len(in.bundle.Txs) != 3 {
		t.Fatalf("pool[1] has %d txs, want 3", len(in.bundle.Txs))
	}
	from, err := in.bundle.Txs[0].Sender()
	if err != nil {
		t.Fatal(err)
	}
	to, amount := transferArgs(in.bundle.Txs[0].Data)
	for k, p := range transferReadBack(1, from, to, amount) {
		expectRejected(t, in, p, func(tr *tracer.BundleTrace) { tr.Txs[1+k].ReturnData[31] ^= 1 })
	}
}

func TestPoolFoldRejectsAlteredSwapOutput(t *testing.T) {
	pool, err := mevLanesInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	in := pool[0]
	if len(in.props) != 1 {
		t.Fatalf("mev input has %d properties, want the fold", len(in.props))
	}
	var last int
	for i, tx := range in.bundle.Txs {
		if len(tx.Data) == 36 && bytes.Equal(tx.Data[:4], workload.CalldataSwap(0)[:4]) {
			last = i
		}
	}
	// Altering the last swap's output leaves every earlier swap intact.
	expectRejected(t, in, in.props[0], func(tr *tracer.BundleTrace) { tr.Txs[last].ReturnData[31] ^= 1 })
}

func TestReferenceDiffRejectsAlteredCallAndLog(t *testing.T) {
	g, err := newGenerator(3)
	if err != nil {
		t.Fatal(err)
	}
	in := single(t, g, workload.TxERC20Transfer)
	res := served(in)
	res.Trace = clone(t, res.Trace)
	res.Trace.Txs[0].Calls[0].GasUsed++
	if err := in.checkResult(res); err == nil {
		t.Error("altered call gas accepted")
	}
	res.Trace = clone(t, &tracer.BundleTrace{Txs: in.ref})
	res.Trace.Txs[0].Logs[0].Data[0] ^= 1
	if err := in.checkResult(res); err == nil {
		t.Error("altered log data accepted")
	}
	res.Trace = clone(t, &tracer.BundleTrace{Txs: in.ref})
	res.Trace.Txs[0].TxHash[0] ^= 1
	if err := in.checkResult(res); err == nil {
		t.Error("altered tx hash accepted")
	}
}

func TestResultCheckRejectsAbortGasAndClock(t *testing.T) {
	g, err := newGenerator(3)
	if err != nil {
		t.Fatal(err)
	}
	in := single(t, g, workload.TxSimpleTransfer)
	for name, alter := range map[string]func(*core.TraceResult){
		"abort":        func(r *core.TraceResult) { r.AbortReason = "memory overflow" },
		"bundle gas":   func(r *core.TraceResult) { r.GasUsed++ },
		"modeled time": func(r *core.TraceResult) { r.VirtualTime = 0 },
	} {
		res := served(in)
		alter(res)
		if err := in.checkResult(res); err == nil {
			t.Errorf("%s: altered result accepted", name)
		}
	}
}

func TestAsymOpsCheck(t *testing.T) {
	if err := checkAsymOps(30, 3, 10); err != nil {
		t.Fatalf("exact count rejected: %v", err)
	}
	if err := checkAsymOps(31, 3, 10); err == nil {
		t.Error("one extra asymmetric operation accepted")
	}
	if err := checkAsymOps(0, 0, 0); err == nil {
		t.Error("a cold dial without asymmetric operations accepted")
	}
}
