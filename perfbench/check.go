package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"hardtape/internal/core"
	"hardtape/internal/tracer"
	"hardtape/internal/types"
	"hardtape/internal/uint256"
	"hardtape/internal/workload"
)

// genesisTokenBalance is the balance BuildWorld writes for every EOA in
// every token.
const genesisTokenBalance = 1 << 40

// property is a closed-form expectation computed from the generator's
// own inputs, independent of any executor.
type property func(tr *tracer.BundleTrace) error

// checkResult checks one returned trace against the reference traces
// and the closed-form properties.
func (in *opInput) checkResult(res *core.TraceResult) error {
	if res.AbortReason != "" {
		return fmt.Errorf("aborted: %s", res.AbortReason)
	}
	if res.VirtualTime <= 0 {
		return fmt.Errorf("modeled time %v not positive", res.VirtualTime)
	}
	if res.GasUsed != in.gas {
		return fmt.Errorf("bundle gas %d, reference %d", res.GasUsed, in.gas)
	}
	if err := in.checkTrace(res.Trace); err != nil {
		return err
	}
	return in.checkProps(res.Trace)
}

// checkTrace compares every transaction trace with the reference
// executor's (tracer.Diff plus the transaction hash and log contents,
// which Diff leaves out).
func (in *opInput) checkTrace(tr *tracer.BundleTrace) error {
	if tr == nil || len(tr.Txs) != len(in.ref) {
		return fmt.Errorf("trace has %d txs, want %d", txCount(tr), len(in.ref))
	}
	for i, got := range tr.Txs {
		want := in.ref[i]
		if got.TxHash != want.TxHash {
			return fmt.Errorf("tx %d: hash %s, want %s", i, got.TxHash, want.TxHash)
		}
		if d := tracer.Diff(got, want); len(d) > 0 {
			return fmt.Errorf("tx %d differs from reference: %s", i, strings.Join(d, "; "))
		}
		for j := range got.Logs {
			if !sameLog(got.Logs[j], want.Logs[j]) {
				return fmt.Errorf("tx %d: log %d differs from reference", i, j)
			}
		}
	}
	return nil
}

func (in *opInput) checkProps(tr *tracer.BundleTrace) error {
	for _, p := range in.props {
		if err := p(tr); err != nil {
			return err
		}
	}
	return nil
}

func txCount(tr *tracer.BundleTrace) int {
	if tr == nil {
		return 0
	}
	return len(tr.Txs)
}

func sameLog(a, b *types.Log) bool {
	if a.Address != b.Address || !bytes.Equal(a.Data, b.Data) || len(a.Topics) != len(b.Topics) {
		return false
	}
	for i := range a.Topics {
		if a.Topics[i] != b.Topics[i] {
			return false
		}
	}
	return true
}

// txProperties returns the closed-form properties of a single-
// transaction bundle of the given archetype.
func txProperties(tx *types.Transaction, kind workload.TxKind) ([]property, error) {
	switch kind {
	case workload.TxSimpleTransfer:
		return []property{plainTransfer(0)}, nil
	case workload.TxERC20BalanceOf:
		return []property{balanceIs(0, genesisTokenBalance)}, nil
	case workload.TxERC20Transfer:
		from, err := tx.Sender()
		if err != nil {
			return nil, err
		}
		to, _ := transferArgs(tx.Data)
		return []property{tokenTransfer(0, *tx.To, from, to)}, nil
	}
	return nil, nil
}

func txAt(tr *tracer.BundleTrace, i int) (*tracer.TxTrace, error) {
	if tr == nil || i >= len(tr.Txs) {
		return nil, fmt.Errorf("trace has no tx %d", i)
	}
	return tr.Txs[i], nil
}

// plainTransfer: a plain ETH transfer uses exactly the 21 000 intrinsic
// gas and succeeds.
func plainTransfer(i int) property {
	return func(tr *tracer.BundleTrace) error {
		t, err := txAt(tr, i)
		if err != nil {
			return err
		}
		if t.GasUsed != 21_000 || t.Reverted || t.Failed {
			return fmt.Errorf("tx %d: plain transfer used %d gas (reverted=%v failed=%v), want 21000",
				i, t.GasUsed, t.Reverted, t.Failed)
		}
		return nil
	}
}

// balanceIs: the transaction (a balanceOf call) returns want.
func balanceIs(i int, want uint64) property {
	w := uint256.NewInt(want).Bytes32()
	return func(tr *tracer.BundleTrace) error {
		t, err := txAt(tr, i)
		if err != nil {
			return err
		}
		if !bytes.Equal(t.ReturnData, w[:]) {
			return fmt.Errorf("tx %d: balanceOf returned %x, want %d", i, t.ReturnData, want)
		}
		return nil
	}
}

// tokenTransfer: transfer(to, a) succeeds, returns true, and writes the
// sender's balance slot and then the recipient's. The trace carries
// slots but not the values written; the values are read back by
// balanceIs in the same bundle where the workload does so.
func tokenTransfer(i int, token, from, to types.Address) property {
	fromSlot, toSlot := balanceSlot(from), balanceSlot(to)
	ok := uint256.NewInt(1).Bytes32()
	return func(tr *tracer.BundleTrace) error {
		t, err := txAt(tr, i)
		if err != nil {
			return err
		}
		if t.Reverted || t.Failed || !bytes.Equal(t.ReturnData, ok[:]) {
			return fmt.Errorf("tx %d: token transfer returned %x (reverted=%v failed=%v), want true",
				i, t.ReturnData, t.Reverted, t.Failed)
		}
		var writes []types.Hash
		for _, a := range t.Storage {
			if a.Write && a.Address == token && (a.Slot == fromSlot || a.Slot == toSlot) {
				writes = append(writes, a.Slot)
			}
		}
		if len(writes) != 2 || writes[0] != fromSlot || writes[1] != toSlot {
			return fmt.Errorf("tx %d: token transfer wrote balance slots %v, want sender then recipient", i, writes)
		}
		return nil
	}
}

// transferReadBack: after transfer(to, a) from a genesis balance, the
// sender holds 2^40−a and the recipient 2^40+a (2^40 for a transfer to
// oneself), as balanceOf calls at txs i and i+1 read back.
func transferReadBack(i int, from, to types.Address, amount uint64) []property {
	if from == to {
		return []property{balanceIs(i, genesisTokenBalance), balanceIs(i+1, genesisTokenBalance)}
	}
	return []property{balanceIs(i, genesisTokenBalance-amount), balanceIs(i+1, genesisTokenBalance+amount)}
}

func balanceSlot(a types.Address) types.Hash {
	return types.BytesToHash(a.Word().Bytes())
}

// transferArgs decodes transfer(to, amount) calldata.
func transferArgs(data []byte) (types.Address, uint64) {
	if len(data) < 68 {
		return types.Address{}, 0
	}
	return types.BytesToAddress(data[16:36]), binary.BigEndian.Uint64(data[60:68])
}

// Constant-product pool layout written by BuildWorld.
const (
	poolReserveIn  = 0
	poolReserveOut = 1
	poolGenesis    = 1 << 30
)

// poolFold: each swap on pool, in bundle order, writes both reserve
// slots and returns the amount the constant-product rule gives from the
// reserves the earlier swaps left — out = rOut·in/(rIn+in), then
// rOut −= out and rIn += in, from the genesis reserves. Each returned
// amount depends on every earlier reserve write, so the sequence checks
// the fold.
func poolFold(pool types.Address, b *types.Bundle) property {
	type step struct {
		tx  int
		out [32]byte
	}
	var steps []step
	rIn, rOut := uint256.NewInt(poolGenesis), uint256.NewInt(poolGenesis)
	for i, tx := range b.Txs {
		if tx.To == nil || *tx.To != pool || len(tx.Data) < 36 {
			continue
		}
		amt := new(uint256.Int).SetBytes(tx.Data[4:36])
		num := new(uint256.Int).Mul(rOut, amt)
		den := new(uint256.Int).Add(rIn, amt)
		out := new(uint256.Int).Div(num, den)
		rOut = new(uint256.Int).Sub(rOut, out)
		rIn = new(uint256.Int).Add(rIn, amt)
		steps = append(steps, step{tx: i, out: out.Bytes32()})
	}
	slotIn, slotOut := types.Hash{31: poolReserveIn}, types.Hash{31: poolReserveOut}
	return func(tr *tracer.BundleTrace) error {
		if len(steps) == 0 {
			return errors.New("bundle has no swap on the hot pool")
		}
		for _, s := range steps {
			t, err := txAt(tr, s.tx)
			if err != nil {
				return err
			}
			var wroteIn, wroteOut bool
			for _, a := range t.Storage {
				if a.Write && a.Address == pool {
					wroteIn = wroteIn || a.Slot == slotIn
					wroteOut = wroteOut || a.Slot == slotOut
				}
			}
			if !wroteIn || !wroteOut {
				return fmt.Errorf("tx %d: swap did not write both reserves", s.tx)
			}
			if !bytes.Equal(t.ReturnData, s.out[:]) {
				return fmt.Errorf("tx %d: swap returned %x, constant-product fold gives %x", s.tx, t.ReturnData, s.out)
			}
		}
		return nil
	}
}

// checkAsymOps: resumes add no asymmetric operations, so the run's
// total is the cold connections times one cold dial's count.
func checkAsymOps(delta, cold, perCold uint64) error {
	if perCold == 0 {
		return errors.New("a cold dial recorded no asymmetric operations")
	}
	if delta != cold*perCold {
		return fmt.Errorf("asymmetric operations %d, want %d cold connections × %d", delta, cold, perCold)
	}
	return nil
}
