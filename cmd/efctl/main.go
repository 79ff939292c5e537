// Command efctl queries a running edgefabricd's versioned status API
// (started with --status). It speaks /v1 and understands the uniform
// response envelope; every daemon hosts a fleet, of one PoP or many:
//
//	efctl -addr 127.0.0.1:8080 pops
//	efctl -addr 127.0.0.1:8080 health
//	efctl -addr 127.0.0.1:8080 -pop lhr overrides
//	efctl -addr 127.0.0.1:8080 -pop lhr cycles -limit 5
//	efctl -addr 127.0.0.1:8080 -pop lhr routes -after 10.0.4.0/24
//	efctl -addr 127.0.0.1:8080 -pop lhr explain 93.184.216.0/24
//	efctl -addr 127.0.0.1:8080 metrics
//	efctl -addr 127.0.0.1:8080 fleet summary
//	efctl -addr 127.0.0.1:8080 fleet health -limit 64 -after lhr
//	efctl -addr 127.0.0.1:8080 reconcile
//	efctl -addr 127.0.0.1:8080 -pop lhr config '{"threshold":0.92}'
//	efctl -addr 127.0.0.1:8080 -pop lhr config -dry-run '{"threshold":0.92}'
//
// Against a fleet of one -pop may be omitted: efctl resolves the sole
// PoP via /v1/pops. Exit codes: 0 success, 2 usage error, 3
// transport failure, 4 the API returned an error envelope.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"
)

const (
	exitOK        = 0
	exitUsage     = 2
	exitTransport = 3
	exitAPI       = 4
)

// envelope mirrors api.Envelope with the data left raw for
// pretty-printing.
type envelope struct {
	Data  json.RawMessage `json:"data"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
	PoP   string `json:"pop,omitempty"`
	Cycle uint64 `json:"cycle,omitempty"`
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: efctl [flags] command [arg]

commands:
  pops                 list hosted PoPs with state and counters
  health               fleet health rollup (-limit, -after POP), or one
                       PoP's ladder, feeds and sessions with -pop
  metrics              Prometheus metrics text, pop="..." labels
  overrides            active overrides of one PoP (-pop, unless only one)
  cycles               recent cycle reports (-limit, -after SEQ)
  routes               RIB routes per prefix (-limit, -after PREFIX)
  explain [prefix]     latest cycle's decision trace, or one prefix's
  fleet summary        cached fleet rollup (paginated: -limit, -after POP)
  fleet health         cached per-PoP health digests (-limit, -after POP)
  reconcile            rolling config-apply status (phase per PoP)
  config JSON          PUT a config update to one PoP (-dry-run validates
                       only; a real apply is a drain-before-apply
                       rollout, watch with reconcile)

flags:
`)
	flag.PrintDefaults()
}

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "", "edgefabricd status API address (host:port)")
	pop := flag.String("pop", "", "PoP name (optional when the daemon hosts exactly one)")
	timeout := flag.Duration("timeout", 5*time.Second, "request timeout")
	limit := flag.Int("limit", 0, "page size for cycles, routes and fleet listings (0 = server default)")
	after := flag.String("after", "", "pagination cursor: cycle sequence (cycles), prefix (routes), or PoP name (fleet)")
	dryRun := flag.Bool("dry-run", false, "config: validate and report the would-be change without applying")
	flag.Usage = usage
	flag.Parse()

	host := *addr
	if host == "" {
		host = "127.0.0.1:8080"
	}
	if flag.NArg() < 1 {
		usage()
		return exitUsage
	}
	// The flag package stops at the first non-flag argument, but flags
	// read naturally after the command too (efctl fleet health -limit 4).
	// Interleave re-parsing: consume one command word, parse the rest,
	// repeat. words ends up holding just the non-flag arguments.
	args := flag.Args()
	var words []string
	for len(args) > 0 {
		words = append(words, args[0])
		if err := flag.CommandLine.Parse(args[1:]); err != nil {
			return exitUsage
		}
		args = flag.Args()
	}
	cmd := words[0]
	cli := &client{base: "http://" + host, http: &http.Client{Timeout: *timeout}}

	query := url.Values{}
	if *limit > 0 {
		query.Set("limit", fmt.Sprint(*limit))
	}
	if *after != "" {
		query.Set("after", *after)
	}

	switch cmd {
	case "fleet":
		if len(words) != 2 {
			fmt.Fprintf(os.Stderr, "efctl: fleet needs a subcommand: summary or health\n")
			usage()
			return exitUsage
		}
		switch words[1] {
		case "summary":
			return cli.show("/v1/fleet/summary", query)
		case "health":
			return cli.show("/v1/fleet/health", query)
		default:
			fmt.Fprintf(os.Stderr, "efctl: unknown fleet subcommand %q (want summary or health)\n", words[1])
			usage()
			return exitUsage
		}
	case "reconcile":
		if len(words) != 1 {
			usage()
			return exitUsage
		}
		return cli.show("/v1/fleet/reconcile", nil)
	case "config":
		if len(words) != 2 {
			fmt.Fprintf(os.Stderr, "efctl: config needs a JSON update document, e.g. '{\"threshold\":0.92}'\n")
			usage()
			return exitUsage
		}
		body := words[1]
		if !json.Valid([]byte(body)) {
			fmt.Fprintf(os.Stderr, "efctl: config document is not valid JSON: %.100s\n", body)
			return exitUsage
		}
		name, code := cli.resolvePoP(*pop)
		if code != exitOK {
			return code
		}
		putQuery := url.Values{}
		if *dryRun {
			putQuery.Set("dry_run", "true")
		}
		return cli.put("/v1/pops/"+url.PathEscape(name)+"/config", putQuery, body)
	case "pops":
		if len(words) != 1 {
			usage()
			return exitUsage
		}
		return cli.show("/v1/pops", nil)
	case "health":
		if len(words) != 1 {
			usage()
			return exitUsage
		}
		if *pop != "" {
			return cli.show("/v1/pops/"+url.PathEscape(*pop)+"/health", nil)
		}
		return cli.show("/v1/fleet/health", query)
	case "metrics":
		if len(words) != 1 {
			usage()
			return exitUsage
		}
		return cli.showText("/v1/metrics", nil)
	case "overrides", "cycles", "routes", "explain":
		if cmd == "explain" {
			switch len(words) {
			case 1:
			case 2:
				query.Set("prefix", words[1])
			default:
				usage()
				return exitUsage
			}
		} else if len(words) != 1 {
			usage()
			return exitUsage
		}
		name, code := cli.resolvePoP(*pop)
		if code != exitOK {
			return code
		}
		path := "/v1/pops/" + url.PathEscape(name) + "/" + cmd
		if cmd == "explain" {
			return cli.showText(path, query)
		}
		return cli.show(path, query)
	default:
		fmt.Fprintf(os.Stderr, "efctl: unknown command %q\n", cmd)
		usage()
		return exitUsage
	}
}

type client struct {
	base string
	http *http.Client
}

// put sends body as a PUT and pretty-prints the response envelope. The
// invalid_config error's per-field details are surfaced, not dropped.
func (c *client) put(path string, query url.Values, body string) int {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequest(http.MethodPut, u, strings.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "efctl: %v\n", err)
		return exitTransport
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "efctl: %v\n", err)
		return exitTransport
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		fmt.Fprintf(os.Stderr, "efctl: %v\n", err)
		return exitTransport
	}
	var env struct {
		Data  json.RawMessage `json:"data"`
		Error *struct {
			Code    string          `json:"code"`
			Message string          `json:"message"`
			Details json.RawMessage `json:"details"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		fmt.Fprintf(os.Stderr, "efctl: %s: non-envelope response (%s): %.200s\n", path, resp.Status, raw)
		return exitTransport
	}
	if env.Error != nil {
		fmt.Fprintf(os.Stderr, "efctl: api error %s: %s\n", env.Error.Code, env.Error.Message)
		if len(env.Error.Details) > 0 {
			if out, err := json.MarshalIndent(env.Error.Details, "", "  "); err == nil {
				fmt.Fprintln(os.Stderr, string(out))
			}
		}
		return exitAPI
	}
	out, err := json.MarshalIndent(env.Data, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "efctl: %v\n", err)
		return exitTransport
	}
	fmt.Println(string(out))
	return exitOK
}

// get fetches path and decodes the envelope. A non-nil envelope with
// Error set means the API answered with a typed error (exit 4 land);
// a returned error means transport or malformed response (exit 3 land).
func (c *client) get(path string, query url.Values) (*envelope, error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	resp, err := c.http.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("%s: non-envelope response (%s): %.200s", path, resp.Status, body)
	}
	return &env, nil
}

// show fetches path and pretty-prints the envelope's data.
func (c *client) show(path string, query url.Values) int {
	env, err := c.get(path, query)
	if err != nil {
		fmt.Fprintf(os.Stderr, "efctl: %v\n", err)
		return exitTransport
	}
	if env.Error != nil {
		fmt.Fprintf(os.Stderr, "efctl: api error %s: %s\n", env.Error.Code, env.Error.Message)
		return exitAPI
	}
	var buf json.RawMessage = env.Data
	out, err := json.MarshalIndent(buf, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "efctl: %v\n", err)
		return exitTransport
	}
	fmt.Println(string(out))
	return exitOK
}

// showText fetches path and prints data.text verbatim — for the
// metrics and explain endpoints, whose payloads are preformatted text.
func (c *client) showText(path string, query url.Values) int {
	env, err := c.get(path, query)
	if err != nil {
		fmt.Fprintf(os.Stderr, "efctl: %v\n", err)
		return exitTransport
	}
	if env.Error != nil {
		fmt.Fprintf(os.Stderr, "efctl: api error %s: %s\n", env.Error.Code, env.Error.Message)
		return exitAPI
	}
	var doc struct {
		Text string `json:"text"`
	}
	if err := json.Unmarshal(env.Data, &doc); err != nil || doc.Text == "" {
		// Fall back to the raw data if the payload isn't text-shaped.
		fmt.Println(string(env.Data))
		return exitOK
	}
	fmt.Print(doc.Text)
	if len(doc.Text) > 0 && doc.Text[len(doc.Text)-1] != '\n' {
		fmt.Println()
	}
	return exitOK
}

// resolvePoP returns the PoP to scope requests to: the -pop flag when
// given, else the daemon's sole PoP, else a usage error listing the
// choices.
func (c *client) resolvePoP(flagPoP string) (string, int) {
	if flagPoP != "" {
		return flagPoP, exitOK
	}
	env, err := c.get("/v1/pops", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "efctl: %v\n", err)
		return "", exitTransport
	}
	if env.Error != nil {
		fmt.Fprintf(os.Stderr, "efctl: api error %s: %s\n", env.Error.Code, env.Error.Message)
		return "", exitAPI
	}
	var doc struct {
		Items []struct {
			Name string `json:"name"`
		} `json:"items"`
	}
	if err := json.Unmarshal(env.Data, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "efctl: decode /v1/pops: %v\n", err)
		return "", exitTransport
	}
	if len(doc.Items) == 1 {
		return doc.Items[0].Name, exitOK
	}
	names := make([]string, len(doc.Items))
	for i, it := range doc.Items {
		names[i] = it.Name
	}
	fmt.Fprintf(os.Stderr, "efctl: daemon hosts %d PoPs %v; pick one with -pop\n", len(names), names)
	return "", exitUsage
}
