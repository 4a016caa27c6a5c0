package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"whisper/internal/cluster"
	"whisper/internal/obs"
	"whisper/internal/server"
)

// backendParallel is each backend's sched worker count: the two backends
// and the gateway share the host's CPUs, so one worker per request keeps a
// request's cost independent of what else runs.
const backendParallel = 1

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	addr string // host:port
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

// close stops accepting, waits for open requests, and waits for Serve to
// return.
func (l *listener) close(ctx context.Context) {
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// stack is a whispergate in front of whisperd backends, all in this process
// on loopback ports, with gateway hedging off.
type stack struct {
	backends []*server.Server
	blisten  []*listener
	gate     *cluster.Gateway
	glisten  *listener
	fwd      *http.Transport // gateway → backends
	client   *http.Client    // benchmark clients → gateway or backends
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
}

// startStack brings up n backends and a gateway and returns once the
// gateway reports every backend healthy.
func startStack(n int) (_ *stack, err error) {
	st := &stack{fwd: newTransport(), client: &http.Client{Transport: newTransport()}}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		srv, l, err := startServer()
		if err != nil {
			return nil, err
		}
		st.backends = append(st.backends, srv)
		st.blisten = append(st.blisten, l)
		addrs = append(addrs, l.addr)
	}
	if st.gate, err = cluster.New(cluster.Config{
		Backends: addrs,
		Hedge:    false,
		HTTP:     &http.Client{Transport: st.fwd},
	}); err != nil {
		return nil, err
	}
	st.gate.Start()
	if st.glisten, err = listen(st.gate.Handler()); err != nil {
		return nil, err
	}
	st.gate.Pool().ProbeAll()
	if h := st.gate.Pool().Healthy(); h != n {
		return nil, fmt.Errorf("gateway sees %d of %d backends healthy", h, n)
	}
	if _, err := st.get("http://" + st.glisten.addr + "/healthz"); err != nil {
		return nil, err
	}
	return st, nil
}

// startServer starts one whisperd backend on a loopback port.
func startServer() (*server.Server, *listener, error) {
	srv, err := server.New(server.Config{Parallel: backendParallel, MaxQueue: 8})
	if err != nil {
		return nil, nil, err
	}
	l, err := listen(srv.Handler())
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, nil, err
	}
	return srv, l, nil
}

func (st *stack) gateURL() string { return "http://" + st.glisten.addr + "/v1/run" }

func backendURL(l *listener) string { return "http://" + l.addr + "/v1/run" }

// close drains the gateway, then the backends, and waits for every serving
// goroutine to return.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.gate != nil {
		st.gate.Shutdown(ctx)
	}
	if st.glisten != nil {
		st.glisten.close(ctx)
	}
	var wg sync.WaitGroup
	for i, srv := range st.backends {
		wg.Add(1)
		go func(srv *server.Server, l *listener) {
			defer wg.Done()
			srv.Shutdown(ctx)
			l.close(ctx)
		}(srv, st.blisten[i])
	}
	wg.Wait()
	st.client.CloseIdleConnections()
	st.fwd.CloseIdleConnections()
}

// reply is one /v1/run response.
type reply struct {
	body    []byte
	cache   string // X-Whisper-Cache
	backend string // X-Whisper-Backend (gateway replies only)
}

// post sends one /v1/run request body to url and fails on any status but
// 200.
func (st *stack) post(url string, payload []byte) (reply, error) {
	resp, err := st.client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return reply{body: body, cache: resp.Header.Get(server.CacheHeader),
		backend: resp.Header.Get(cluster.BackendHeader)}, nil
}

func (st *stack) get(url string) ([]byte, error) {
	resp, err := st.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("GET " + url + ": " + resp.Status)
	}
	return body, nil
}

// counter reads one gateway counter.
func (st *stack) counter(name string, labels ...obs.Label) uint64 {
	return st.gate.Obs().Counter(name, labels...).Value()
}
