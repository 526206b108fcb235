//! The shared `--trace` / `--profile` / `--metrics-json` flags.
//!
//! Every reasoning command (`sat`, `imp`, `detect`, `ged-sat`, `ged-imp`)
//! accepts the same three observability options; this module parses them
//! once and renders the exporters once. Passing any of the three turns
//! tracing on for the run (the default stays the zero-cost disabled path).

use crate::args::{ArgError, Parsed};
use gfd_io::report;
use gfd_runtime::{RunMetrics, TraceSpec};
use std::io::Write;

/// Help text fragment shared by every command that takes the flags.
pub(crate) const TRACE_HELP: &str = "\
  --trace FILE   write a Chrome trace-event JSON timeline (load it in
                 chrome://tracing or Perfetto; validate with `gfd trace-check`)
  --profile      print the aggregated profile (per-rule time/matches,
                 per-worker scheduler activity, per-phase breakdown)
  --metrics-json FILE  write every run counter plus the profile as JSON
";

/// The parsed observability options of one command invocation.
pub(crate) struct TraceArgs {
    trace: Option<String>,
    profile: bool,
    metrics_json: Option<String>,
}

impl TraceArgs {
    /// Pull the three flags out of `args` (must run before `finish()`).
    pub fn parse(args: &Parsed) -> Result<Self, ArgError> {
        Ok(TraceArgs {
            trace: args.opt_str("trace")?.map(str::to_string),
            profile: args.flag("profile"),
            metrics_json: args.opt_str("metrics-json")?.map(str::to_string),
        })
    }

    /// Was any exporter requested?
    pub fn active(&self) -> bool {
        self.trace.is_some() || self.profile || self.metrics_json.is_some()
    }

    /// The [`TraceSpec`] to plumb into the engine config: enabled with the
    /// default ring capacity iff an exporter will consume the events.
    pub fn spec(&self) -> TraceSpec {
        if self.active() {
            TraceSpec::enabled()
        } else {
            TraceSpec::disabled()
        }
    }

    /// Run the requested exporters against the finished run's metrics.
    /// `rule_names[i]` labels rule id `i` in both exporters.
    pub fn emit(
        &self,
        metrics: &RunMetrics,
        rule_names: &[String],
        out: &mut dyn Write,
    ) -> Result<(), ArgError> {
        if let Some(path) = &self.trace {
            std::fs::write(path, report::chrome_trace(&metrics.trace, rule_names))
                .map_err(|e| ArgError::new(format!("cannot write trace {path}: {e}")))?;
            let _ = writeln!(
                out,
                "wrote trace {path} ({} event(s), {} dropped)",
                metrics.trace.events.len(),
                metrics.trace.dropped
            );
        }
        if self.profile {
            let profile = metrics.trace.profile();
            if profile.is_empty() {
                let _ = writeln!(out, "profile: no events recorded");
            } else {
                let _ = write!(out, "{}", profile.render_text(rule_names));
            }
        }
        if let Some(path) = &self.metrics_json {
            std::fs::write(path, report::run_report(metrics, rule_names))
                .map_err(|e| ArgError::new(format!("cannot write metrics {path}: {e}")))?;
            let _ = writeln!(out, "wrote metrics {path}");
        }
        Ok(())
    }
}

/// Rule names in id order.
pub(crate) fn rule_names(sigma: &gfd_core::DepSet) -> Vec<String> {
    sigma.iter().map(|(_, d)| d.name.clone()).collect()
}
