// Command arborctl is the HTTP client for an arbord daemon: get/put keys,
// dump the metrics, and inject faults (a checkpoint and a reshape of the
// tree among them) from the command line.
//
// Usage:
//
//	arborctl [-addr http://127.0.0.1:8080] get KEY
//	arborctl put KEY VALUE
//	arborctl stats
//	arborctl fault ACTIONS      e.g. crash=2, drain=2, recover=4, recoverall, checkpoint,
//	                            reconfigure=1-4-4
//	arborctl controller [enable|disable]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "arborctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("arborctl", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "arbord base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("need a command: get, put, stats, fault, controller")
	}
	base := strings.TrimRight(*addr, "/")

	switch cmd := rest[0]; cmd {
	case "get":
		if len(rest) != 2 {
			return errors.New("usage: get KEY")
		}
		return request(out, http.MethodGet, base+"/get?key="+url.QueryEscape(rest[1]), "")
	case "put":
		if len(rest) != 3 {
			return errors.New("usage: put KEY VALUE")
		}
		return request(out, http.MethodPut, base+"/put?key="+url.QueryEscape(rest[1]), rest[2])
	case "stats":
		return request(out, http.MethodGet, base+"/metrics", "")
	case "fault":
		// One event in the schedule syntax, e.g. crash=2 or drain=2+saturate=3.
		if len(rest) != 2 {
			return errors.New("usage: fault ACTIONS")
		}
		return request(out, http.MethodPost, base+"/fault?do="+url.QueryEscape(rest[1]), "")
	case "controller":
		// Bare "controller" inspects; "enable"/"disable" toggles.
		switch {
		case len(rest) == 1:
			return request(out, http.MethodGet, base+"/controller", "")
		case len(rest) == 2 && (rest[1] == "enable" || rest[1] == "disable"):
			return request(out, http.MethodPost, base+"/controller?action="+rest[1], "")
		default:
			return errors.New("usage: controller [enable|disable]")
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// request performs one HTTP call, streams the body to out, and maps non-2xx
// statuses to errors.
func request(out io.Writer, method, target, body string) error {
	req, err := http.NewRequest(method, target, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	_, err = out.Write(data)
	if err == nil && len(data) > 0 && data[len(data)-1] != '\n' {
		fmt.Fprintln(out)
	}
	return err
}
