package main

import (
	"fmt"
	"time"

	"scale/internal/core"
	"scale/internal/guti"
	"scale/internal/hss"
	"scale/internal/mlb"
	"scale/internal/obs"
	"scale/internal/sgw"
)

// The cluster under test is the stock four-daemon deployment, booted
// in-process over loopback TCP from the same public constructors the
// cmd/scale-* mains call, with the values those mains pass at default
// flags. Anything not listed here is a zero value the constructors
// default themselves — deliberately not chaos.Cluster's tuned timings.
const (
	firstIMSI   = 100000000       // scale-epc -first-imsi
	subscribers = 100000          // scale-epc -subscribers
	ringTokens  = 5               // scale-mlb -tokens
	loadReport  = 2 * time.Second // scale-mmp -load-report
	mmegi       = 0x0101          // -mmegi on both daemons
)

var plmn = guti.PLMN{MCC: 310, MNC: 26} // -mcc/-mnc on both daemons

// cluster is one booted deployment: HSS, S-GW, one MLB and n MMP agents.
type cluster struct {
	db     *hss.DB
	gw     *sgw.GW
	hssSrv *hss.Server
	sgwSrv *sgw.Server
	mlb    *core.MLBServer
	agents []*core.MMPAgent
}

// bootCluster starts the deployment and returns once every MMP is on the
// ring. withObs attaches one obs.Observer per daemon the way -obs-listen
// does (without the HTTP listener); the default run leaves Obs nil.
func bootCluster(mmps int, withObs bool) (*cluster, error) {
	c := &cluster{db: hss.NewDB(), gw: sgw.New()}
	c.db.ProvisionRange(firstIMSI, subscribers)
	var err error
	if c.hssSrv, err = hss.Serve("127.0.0.1:0", c.db); err != nil {
		return nil, fmt.Errorf("hss: %w", err)
	}
	if c.sgwSrv, err = sgw.Serve("127.0.0.1:0", c.gw); err != nil {
		c.close()
		return nil, fmt.Errorf("sgw: %w", err)
	}
	observer := func(node string) *obs.Observer {
		if !withObs {
			return nil
		}
		return obs.NewObserver(node, 4096) // -span-log default
	}
	c.mlb, err = core.ServeMLBConfig(core.MLBServerConfig{
		Router: mlb.Config{
			Name: "scale-mlb", PLMN: plmn, MMEGI: mmegi, MMEC: 1,
			Tokens: ringTokens, Obs: observer("scale-mlb"),
		},
		ENBAddr: "127.0.0.1:0",
		MMPAddr: "127.0.0.1:0",
	})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("mlb: %w", err)
	}
	for i := 1; i <= mmps; i++ {
		a, err := core.StartMMPAgent(core.MMPAgentConfig{
			Index: uint8(i), PLMN: plmn, MMEGI: mmegi, MMEC: 1,
			MLBAddr:         c.mlb.MMPAddr(),
			HSSAddr:         c.hssSrv.Addr(),
			SGWAddr:         c.sgwSrv.Addr(),
			LoadReportEvery: loadReport,
			Obs:             observer(fmt.Sprintf("mmp-%d", i)),
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("mmp-%d: %w", i, err)
		}
		c.agents = append(c.agents, a)
	}
	// Registration is asynchronous (a control frame to the MLB); traffic
	// sent before the ring is complete would skew the attach balance.
	deadline := time.Now().Add(5 * time.Second)
	for len(c.mlb.Router.MMPs()) < mmps {
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("only %d of %d MMPs registered", len(c.mlb.Router.MMPs()), mmps)
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

// close stops every component and waits for its goroutines.
func (c *cluster) close() {
	for _, a := range c.agents {
		a.Close()
	}
	if c.mlb != nil {
		c.mlb.Close()
	}
	if c.sgwSrv != nil {
		c.sgwSrv.Close()
	}
	if c.hssSrv != nil {
		c.hssSrv.Close()
	}
}
