// Client-server demo: the paper's prototype architecture (§5) end to end.
// A vmsd-style HTTP server owns the repository; a client commits dataset
// versions, branches, merges, triggers a server-side storage optimization,
// and checks versions back out — all over the wire.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"

	"versiondb"
	"versiondb/internal/dataset"
	"versiondb/internal/vcs"
)

func main() {
	dir, err := os.MkdirTemp("", "versiondb-clientserver-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	r, err := versiondb.InitRepo(dir)
	if err != nil {
		log.Fatal(err)
	}
	// Serve on an ephemeral local port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: vcs.NewServer(r).Handler()}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			log.Print(err)
		}
	}()
	defer srv.Close()
	url := "http://" + ln.Addr().String()
	fmt.Println("server listening on", url)

	client := vcs.NewClient(url)
	rng := rand.New(rand.NewSource(1))

	// Commit a base dataset and iterate on two branches.
	table := dataset.Random(rng, 120, 5)
	root, err := client.Commit("master", mustCSV(table), "base dataset")
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Branch("cleaning", root); err != nil {
		log.Fatal(err)
	}
	cleaning := table
	for i := 0; i < 3; i++ {
		cleaning = evolve(rng, cleaning)
		if _, err := client.Commit("cleaning", mustCSV(cleaning), fmt.Sprintf("cleaning pass %d", i+1)); err != nil {
			log.Fatal(err)
		}
	}
	main := table
	for i := 0; i < 2; i++ {
		main = evolve(rng, main)
		if _, err := client.Commit("master", mustCSV(main), fmt.Sprintf("main edit %d", i+1)); err != nil {
			log.Fatal(err)
		}
	}
	// The user merges (the prototype never auto-merges).
	logEntries, err := client.Log()
	if err != nil {
		log.Fatal(err)
	}
	cleaningTip := -1
	for _, v := range logEntries {
		if v.Branch == "cleaning" {
			cleaningTip = v.ID
		}
	}
	merged := evolve(rng, main)
	if _, err := client.Merge("master", cleaningTip, mustCSV(merged), "merge cleaning into master"); err != nil {
		log.Fatal(err)
	}

	before, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before optimize: %d versions, stored %d bytes (logical %d)\n",
		before.Versions, before.StoredBytes, before.LogicalBytes)

	resp, err := client.Optimize(vcs.OptimizeRequest{
		Solver:       "lmg",
		BudgetFactor: 1.25,
		RevealHops:   5,
		Compress:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	after, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized with %s: stored %d bytes, ΣR=%.0f maxR=%.0f\n",
		resp.Algorithm, after.StoredBytes, resp.SumR, resp.MaxR)

	// Verify a checkout round trip over HTTP.
	payload, err := client.Checkout(cleaningTip)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checked out version %d over HTTP: %d bytes\n", cleaningTip, len(payload))
}

func evolve(rng *rand.Rand, t *dataset.Table) *dataset.Table {
	s := dataset.RandomScript(rng, t.NumRows(), t.NumCols(), 2)
	out, err := s.Apply(t)
	if err != nil {
		log.Fatal(err)
	}
	return out
}

func mustCSV(t *dataset.Table) []byte {
	b, err := t.EncodeCSV()
	if err != nil {
		log.Fatal(err)
	}
	return b
}
