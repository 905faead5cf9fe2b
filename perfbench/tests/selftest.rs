//! Self-tests of the benchmark binary: failure accounting, the metric
//! contract with `BENCHMARK.json`, environment hygiene and the wall-clock
//! quarantine. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The per-layer metrics the benchmark's design promises.
const PROMISED_LAYER_METRICS: [&str; 31] = [
    "tx.build_frame.ns_per_slot",
    "core.planner.cache_hit_ratio",
    "combinat.encode.ns_per_symbol",
    "channel.sampled.ns_per_slot",
    "desim.rng.gaussian_ns",
    "channel.iid.ns_per_slot",
    "channel.opcache.hit_ratio",
    "rx.push_slots.ns_per_slot",
    "rx.frames_ok_ratio",
    "mac.ns_per_frame",
    "mac.retries_per_frame",
    "fec.encode_us_per_frame",
    "fec.decode_us_per_frame",
    "fec.corrected_symbols",
    "net.source.ns_per_frame",
    "net.delivery_ratio",
    "net.frags_per_dgram",
    "cell.events",
    "cell.queue_peak",
    "cell.handovers",
    "desim.sched.ns_per_event",
    "cell.opcache.entries",
    "cell.opcache.hit_ratio",
    "vlc.opcache.query_miss_ns",
    "cell.geometry.rss_ns",
    "cell.interference_ns",
    "cell.handover.step_ns",
    "trace.unattributed_ratio",
    "trace.overhead_ratio",
    "tx.build_frame.share",
    "channel.sampled.share",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn bench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args)
        .env_remove("SMARTVLC_FEC")
        .env_remove("SMARTVLC_OPCACHE");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("the benchmark binary runs")
}

fn run(workload: &str, seconds: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        seconds,
        "--trace",
        trace,
    ];
    args.extend_from_slice(extra);
    bench(&args, &[])
}

/// The last stdout line, parsed.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark printed a result");
    Json::parse(last)
}

/// `(name, unit)` of every metric in the result object.
fn printed_metrics(r: &Json) -> Vec<(String, String)> {
    r.get("metrics")
        .object()
        .iter()
        .map(|(k, v)| (k.clone(), v.get("unit").string().to_string()))
        .collect()
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared_metrics(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text)
        .get(section)
        .array()
        .iter()
        .map(|m| {
            (
                m.get("name").string().to_string(),
                m.get("unit").string().to_string(),
            )
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn forced_check_failure_is_counted_and_fails_the_command() {
    let out = run("link_analytic", "0.2", "0", &["--fail-task", "1"]);
    assert!(
        !out.status.success(),
        "a failed check must fail the command"
    );
    let r = result(&out);
    assert_eq!(r.get("correct"), &Json::Bool(false));
    assert_eq!(r.get("failed").number(), 1.0);
    assert!(r.get("attempted").number() > 1.0);
}

#[test]
fn clean_run_passes_its_checks() {
    let out = run("link_sampled", "0.2", "0", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let r = result(&out);
    assert_eq!(r.get("correct"), &Json::Bool(true));
    assert_eq!(r.get("failed").number(), 0.0);
}

#[test]
fn end_to_end_metrics_match_benchmark_json() {
    let out = run("net_mix", "0.2", "0", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let r = result(&out);
    assert_eq!(
        sorted(printed_metrics(&r)),
        sorted(declared_metrics("end_to_end"))
    );
    for (name, _) in printed_metrics(&r) {
        let v = r.get("metrics").get(&name).get("value").number();
        assert!(v > 0.0, "{name} = {v}: end-to-end metrics are never 0");
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    let out = run("link_analytic", "0.4", "1", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let r = result(&out);
    let printed = printed_metrics(&r);
    assert_eq!(
        sorted(printed.clone()),
        sorted(declared_metrics("per_layer"))
    );
    for name in PROMISED_LAYER_METRICS {
        assert!(
            printed.iter().any(|(n, _)| n == name),
            "{name} is not printed"
        );
    }
    // Layers this workload bypasses must read exactly zero.
    let m = r.get("metrics");
    for bypassed in [
        "channel.sampled.share",
        "net.source.share",
        "fec.encode_us_per_frame",
    ] {
        assert_eq!(m.get(bypassed).get("value").number(), 0.0, "{bypassed}");
    }
    assert!(m.get("tx.build_frame.share").get("value").number() > 0.0);
}

#[test]
fn plan_names_only_declared_metrics_and_workloads() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = Json::parse(&text);
    let names = |section: &str| -> Vec<String> {
        bench
            .get(section)
            .array()
            .iter()
            .map(|m| m.get("name").string().to_string())
            .collect()
    };
    let (workloads, e2e, layers) = (names("workloads"), names("end_to_end"), names("per_layer"));
    let text = std::fs::read_to_string(repo_root().join("perfbench/plan.json")).expect("plan.json");
    let plan = Json::parse(&text);
    let planned: Vec<&String> = plan
        .get("workloads")
        .object()
        .iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(planned, workloads.iter().collect::<Vec<_>>());
    for p in plan.get("predictions").array() {
        let metric = p.get("layer_metric").string();
        assert!(
            layers.iter().any(|l| l == metric),
            "{metric} is not a per_layer metric"
        );
        for m in p.get("moves").array() {
            let m = m.string();
            assert!(
                m == "failed" || e2e.iter().any(|e| e == m),
                "{metric} moves unknown {m}"
            );
        }
        for w in p.get("on").array().iter().chain(p.get("not_on").array()) {
            assert!(
                workloads.iter().any(|x| x == w.string()),
                "{metric}: unknown workload"
            );
        }
    }
}

#[test]
fn refuses_a_kill_switch_in_the_environment() {
    for var in ["SMARTVLC_FEC", "SMARTVLC_OPCACHE"] {
        let args = [
            "--workload",
            "link_analytic",
            "--seed",
            "1",
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ];
        let out = bench(&args, &[(var, "off")]);
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: no result may be printed");
    }
}

#[test]
fn committed_results_stay_byte_identical() {
    let snapshot = || {
        let mut files = BTreeMap::new();
        for e in std::fs::read_dir(repo_root().join("results"))
            .expect("results/")
            .flatten()
        {
            if e.path().is_file() {
                files.insert(e.path(), std::fs::read(e.path()).expect("readable"));
            }
        }
        files
    };
    let before = snapshot();
    let out = run("link_sampled", "0.2", "1", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(before == snapshot(), "a benchmark run changed results/");
}

/// Just enough JSON for the benchmark's own output and `BENCHMARK.json`.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(s: &str) -> Json {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing data after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        self.object()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn object(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(o) => o,
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn string(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut o = Vec::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(o);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    o.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b'}' {
                        return Json::Obj(o);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.b[self.i] != b'"' {
                    assert_ne!(self.b[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8_lossy(&self.b[start..self.i - 1]).into_owned())
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.b[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }
}
