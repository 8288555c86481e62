//! The host stamp every result record carries, and the rule that records
//! from different hosts are not compared.

use serde::Value;
use std::process::Command;

/// Where a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
}

/// The trimmed stdout of a successful command.
fn command_line(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The first `model name` line of a `/proc/cpuinfo` text.
pub fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

impl Host {
    /// Stamps the current host.
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|text| cpu_model(&text))
                .unwrap_or_else(|| "unknown".into()),
            // The ceiling keeps git from reporting an enclosing repository
            // when the benchmark runs from a checkout that is not one.
            commit: std::env::current_dir()
                .ok()
                .and_then(|dir| {
                    let ceiling = dir.parent()?.to_path_buf();
                    command_line(
                        Command::new("git")
                            .args(["rev-parse", "HEAD"])
                            .env("GIT_CEILING_DIRECTORIES", ceiling),
                    )
                })
                .unwrap_or_else(|| "unknown".into()),
            rustc: command_line(Command::new("rustc").arg("-V"))
                .unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The stamp as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("nproc".into(), Value::Number(self.nproc as f64)),
            ("cpu_model".into(), Value::String(self.cpu_model.clone())),
            ("commit".into(), Value::String(self.commit.clone())),
            ("rustc".into(), Value::String(self.rustc.clone())),
        ])
    }
}

/// Why two host stamps (JSON objects) may not be compared, if they may
/// not: a different CPU count or CPU model makes timings incomparable.
/// The commit and compiler may differ — comparing them is the point.
pub fn incomparable(a: &Value, b: &Value) -> Option<String> {
    let field = |v: &Value, key: &str| crate::client::get(v, key).cloned();
    for key in ["nproc", "cpu_model"] {
        if field(a, key) != field(b, key) {
            return Some(format!(
                "{key} differs: {:?} vs {:?}",
                field(a, key),
                field(b, key)
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_reads_the_first_model_name() {
        let text = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(cpu_model(text).as_deref(), Some("Example CPU @ 2.0GHz"));
        assert_eq!(cpu_model("processor\t: 0\n"), None);
    }

    #[test]
    fn different_hosts_are_incomparable() {
        let host = Host {
            nproc: 2,
            cpu_model: "A".into(),
            commit: "x".into(),
            rustc: "rustc 1".into(),
        };
        let other_commit = Host {
            commit: "y".into(),
            ..host.clone()
        };
        assert_eq!(
            incomparable(&host.to_value(), &other_commit.to_value()),
            None
        );
        let other_cpu = Host {
            cpu_model: "B".into(),
            ..host.clone()
        };
        assert!(incomparable(&host.to_value(), &other_cpu.to_value()).is_some());
        let more_cpus = Host { nproc: 4, ..host };
        assert!(incomparable(&other_commit.to_value(), &more_cpus.to_value()).is_some());
    }
}
