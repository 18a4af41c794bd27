package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// StatusFunc supplies the live run-status document served at /debug/status.
// It is called on every request, so implementations return a fresh snapshot
// (cells done/failed, per-worker occupancy, attribution counters,
// ...) and must be safe for concurrent use. A nil StatusFunc serves an
// empty object.
type StatusFunc func() any

// ServeStatus starts the operational HTTP endpoint on addr in a background
// goroutine and returns the listening server. It exposes:
//
//	/debug/pprof/*      net/http/pprof profiles (cpu, heap, goroutine, ...)
//	/metrics            the registry in Prometheus text format (collect
//	                    hooks run on every scrape, so values are
//	                    scrape-fresh)
//	/healthz            liveness ("ok")
//	/debug/status       the live run-status document as JSON
//	/debug/status/html  a minimal self-refreshing HTML view of the same
//
// reg may be nil, in which case /metrics serves an empty exposition. The
// returned server's Addr field holds the actual bound address (so addr may
// use port 0 in tests). Shut it down with Close or Shutdown.
func ServeStatus(addr string, reg *Registry, status StatusFunc) (*http.Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg == nil {
			return
		}
		reg.Collect()
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var doc any = struct{}{}
		if status != nil {
			doc = status()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/status/html", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, statusHTML)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}

// statusHTML is the dashboard page: it polls /debug/status every two seconds
// and renders the JSON document as nested tables. Everything is inline —
// no external assets, works from curl'd file:// copies too.
const statusHTML = `<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>uopsim run status</title>
<style>
body{font-family:ui-monospace,monospace;margin:1.5rem;background:#fafafa;color:#222}
h1{font-size:1.1rem} table{border-collapse:collapse;margin:.4rem 0}
td,th{border:1px solid #ccc;padding:.15rem .5rem;text-align:left;vertical-align:top}
th{background:#eee} .k{color:#4477AA} #err{color:#AA3377}
</style></head><body>
<h1>uopsim run status <small id="ts"></small></h1>
<div id="err"></div><div id="root">loading…</div>
<script>
function render(v){
  if(v===null||typeof v!=="object"){return document.createTextNode(String(v))}
  var t=document.createElement("table");
  if(Array.isArray(v)){
    v.forEach(function(x,i){var r=t.insertRow();var h=document.createElement("th");
      h.textContent=i;r.appendChild(h);r.insertCell().appendChild(render(x))});
  }else{
    Object.keys(v).forEach(function(k){var r=t.insertRow();var h=document.createElement("th");
      h.className="k";h.textContent=k;r.appendChild(h);r.insertCell().appendChild(render(v[k]))});
  }
  return t;
}
function tick(){
  fetch("/debug/status").then(function(r){return r.json()}).then(function(doc){
    var root=document.getElementById("root");root.textContent="";
    root.appendChild(render(doc));
    document.getElementById("ts").textContent=new Date().toLocaleTimeString();
    document.getElementById("err").textContent="";
  }).catch(function(e){document.getElementById("err").textContent="fetch failed: "+e});
}
tick();setInterval(tick,2000);
</script></body></html>
`
