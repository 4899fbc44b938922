package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"hardtape/internal/attest"
	"hardtape/internal/core"
	"hardtape/internal/fleet"
	"hardtape/internal/node"
	"hardtape/internal/session"
	"hardtape/internal/telemetry"
	"hardtape/internal/types"
	"hardtape/internal/workload"
)

// system is one set-up of the program under test: world, node,
// device(s), optional gateway, the service, and the users' sessions.
// Every bundle reaches the service over an in-process connection, so
// the service decodes fresh transactions and recovers their senders.
type system struct {
	devices []*core.Device
	gw      *fleet.Gateway
	svc     *core.Service
	sign    bool
	mfr     *attest.Manufacturer

	// Long-lived sessions (eval-mix, mev-lanes), one per user.
	clients []*core.Client
	// Churning users (session-churn): each holds its last ticket.
	users []*churnUser
	// perColdAsym is the asymmetric operations one cold dial costs,
	// measured on the users' first dials.
	perColdAsym uint64

	clientTracer *telemetry.Tracer
	serving      sync.WaitGroup

	buildTime, syncTime time.Duration
}

type churnUser struct {
	ticket *session.ClientTicket
	ops    int
}

// deviceShape is what a workload asks of each device.
type deviceShape struct {
	features core.Features
	hevms    int
	lanes    int
	shards   int
}

type workloadDef struct {
	name    string
	inputs  func(seed int64) ([]*opInput, error)
	devices int
	shape   deviceShape
	fleet   bool
	users   int
	// warm is the untimed warm-up, in operations.
	warm int
}

var workloads = []workloadDef{
	{
		name: "eval-mix", inputs: evalMixInputs, devices: 1, users: 2, warm: 64,
		shape: deviceShape{features: core.ConfigFull, hevms: 3},
	},
	{
		name: "mev-lanes", inputs: mevLanesInputs, devices: 1, users: 1, warm: 6,
		shape: deviceShape{features: core.ConfigFull, hevms: 3, lanes: 4, shards: 4},
	},
	{
		name: "session-churn", inputs: sessionChurnInputs, devices: 2, fleet: true, users: 2, warm: 48,
		shape: deviceShape{features: core.ConfigE, hevms: 3},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setUp builds the program from the seed. reg, when non-nil, is wired
// into every device, the gateway and the service.
func setUp(def workloadDef, seed int64, reg *telemetry.Registry) (*system, error) {
	sys := &system{sign: def.shape.features.Sign}
	t0 := time.Now()
	world, err := workload.BuildWorld(worldConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	sys.buildTime = time.Since(t0)
	chain, err := node.New(world.State)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if sys.mfr, err = attest.NewManufacturer(); err != nil {
		return nil, fmt.Errorf("manufacturer: %w", err)
	}
	var backends []fleet.Backend
	for i := 0; i < def.devices; i++ {
		cfg := core.DefaultConfig()
		cfg.Features = def.shape.features
		cfg.HEVMs = def.shape.hevms
		cfg.Lanes = def.shape.lanes
		cfg.ORAMShards = def.shape.shards
		cfg.NoiseSeed = int64(i + 1)
		cfg.Telemetry = reg
		dev, err := core.NewDevice(cfg, sys.mfr, chain)
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
		t := time.Now()
		if err := dev.Sync(); err != nil {
			return nil, fmt.Errorf("sync %d: %w", i, err)
		}
		sys.syncTime += time.Since(t)
		sys.devices = append(sys.devices, dev)
		backends = append(backends, fleet.NewLocalBackend(fmt.Sprintf("dev-%d", i), dev))
	}
	if def.fleet {
		fcfg := fleet.DefaultConfig()
		fcfg.Telemetry = reg
		sys.gw = fleet.NewGateway(fcfg, backends...)
		sys.svc = core.NewServiceFor(sys.gw, sys.devices[0].Booted(), sys.sign)
		sys.svc.SetAdmission(sys.gw.SessionAdmission())
		sys.svc.SetTelemetry(reg)
	} else {
		sys.svc = core.NewService(sys.devices[0])
	}

	if def.fleet {
		// Each user's first connection is a cold dial: it seeds the
		// ticket chain and measures one cold dial's asymmetric cost.
		for u := 0; u < def.users; u++ {
			before := attest.AsymOps()
			c, err := sys.dial()
			if err != nil {
				sys.close()
				return nil, err
			}
			sys.perColdAsym = attest.AsymOps() - before
			sys.users = append(sys.users, &churnUser{ticket: c.Ticket()})
			c.Close()
		}
		sys.serving.Wait()
		return sys, nil
	}
	for u := 0; u < def.users; u++ {
		c, err := sys.dial()
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.clients = append(sys.clients, c)
	}
	return sys, nil
}

// connect opens an in-process connection served by the service; the
// serving goroutine ends when the client side closes.
func (s *system) connect() net.Conn {
	cli, srv := net.Pipe()
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		defer srv.Close()
		// A session's error surfaces on the client side of the pipe.
		_ = s.svc.ServeConn(srv)
	}()
	return cli
}

// dial attests the service as a new user (no verdict cache) and opens a
// session.
func (s *system) dial() (*core.Client, error) {
	conn := s.connect()
	c, err := core.Dial(conn, attest.NewVerifier(s.mfr.PublicKey(), core.ImageMeasurement()), s.sign)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	c.SetTracer(s.clientTracer)
	return c, nil
}

func (s *system) resume(t *session.ClientTicket) (*core.Client, error) {
	conn := s.connect()
	c, err := core.Resume(conn, t)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("resume: %w", err)
	}
	c.SetTracer(s.clientTracer)
	return c, nil
}

// setClientTracer switches client-side tracing for every later request.
func (s *system) setClientTracer(tr *telemetry.Tracer) {
	s.clientTracer = tr
	for _, c := range s.clients {
		c.SetTracer(tr)
	}
}

// opTiming is what one operation reports besides its result.
type opTiming struct {
	cold         bool
	dial, resume time.Duration
}

// do runs one user operation: a PreExecute round trip on the user's
// session, or on session-churn a whole connect → trace → close.
func (s *system) do(user int, b *types.Bundle) (*core.TraceResult, opTiming, error) {
	var tm opTiming
	if s.users == nil {
		res, err := s.clients[user].PreExecute(b)
		return res, tm, err
	}
	u := s.users[user]
	var (
		c   *core.Client
		err error
	)
	t0 := time.Now()
	if u.ops%churnColdEvery == churnColdEvery-1 || u.ticket == nil {
		tm.cold = true
		c, err = s.dial()
		tm.dial = time.Since(t0)
	} else {
		c, err = s.resume(u.ticket)
		tm.resume = time.Since(t0)
	}
	u.ops++
	u.ticket = nil
	if err != nil {
		return nil, tm, err
	}
	res, err := c.PreExecute(b)
	u.ticket = c.Ticket()
	c.Close()
	return res, tm, err
}

// close tears the set-up down and waits for every goroutine it started.
func (s *system) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.serving.Wait()
	if s.gw != nil {
		s.gw.Close()
	}
	s.clients, s.users = nil, nil
}

// gcNow collects twice so finalizers and the sweep of the first cycle
// settle before a measurement.
func gcNow() {
	runtime.GC()
	runtime.GC()
}
