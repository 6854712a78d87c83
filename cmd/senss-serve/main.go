// Command senss-serve hosts SENSS simulations behind the HTTP/JSON API
// in internal/serve: multi-tenant sessions over a lock-striped table, a
// service-wide SHU group accountant with per-tenant quotas, and a
// bounded worker pool that answers saturation with 429 + Retry-After.
//
// Usage:
//
//	senss-serve serve -addr 127.0.0.1:8080 [-workers N] [-quota N]
//
// "serve" runs the service until interrupted. Its load benchmark and
// self-test are `senss-farm bench-serve`.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"senss/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "serve":
		err = cmdServe(args)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "senss-serve: unknown subcommand %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "senss-serve: %v\n", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `senss-serve — multi-tenant SENSS simulation service

usage: senss-serve serve [flags]

serve flags:
  -addr       listen address (default 127.0.0.1:8080)
  -workers    concurrent simulation slices (default 8)
  -backlog    admission waiting room beyond workers (default 32)
  -step       default step slice in cycles (default 200000)
  -capacity   service-wide SHU group budget (default 1024)
  -quota      per-tenant group quota, 0 = unlimited (default 0)
  -idle       evict sessions idle this long, 0 = never (default 0)
  -sweep      janitor period when -idle is set (default 30s)
`)
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("senss-serve serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	var opts serve.Options
	fs.IntVar(&opts.Workers, "workers", 0, "concurrent simulation slices")
	fs.IntVar(&opts.Backlog, "backlog", 0, "admission waiting room")
	fs.Uint64Var(&opts.StepCycles, "step", 0, "default step slice in cycles")
	fs.IntVar(&opts.GroupCapacity, "capacity", 0, "service-wide SHU group budget")
	fs.IntVar(&opts.TenantQuota, "quota", 0, "per-tenant group quota (0 = unlimited)")
	fs.DurationVar(&opts.IdleTimeout, "idle", 0, "idle-session eviction timeout (0 = never)")
	fs.DurationVar(&opts.SweepEvery, "sweep", 30*time.Second, "eviction janitor period")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv := serve.New(opts)
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	fmt.Printf("senss-serve: listening on http://%s\n", ln.Addr())
	return (&http.Server{Handler: srv.Handler()}).Serve(ln)
}
