#include "ksr/obs/session.hpp"

#include <iostream>
#include <utility>

namespace ksr::obs {

Session::Session(SessionOptions opt, std::string name)
    : opt_(std::move(opt)), name_(std::move(name)) {}

Session::~Session() { close(); }

bool Session::trace_as_csv() const {
  const std::string p = trace_path();
  return p.size() >= 4 && p.compare(p.size() - 4, 4, ".csv") == 0;
}

std::string Session::trace_path() const {
  return opt_.trace_out.empty() ? name_ + "_trace.json" : opt_.trace_out;
}

JobObs Session::job() const {
  JobObs o;
  if (tracing() || reporting()) {
    o.tracer_ = std::make_unique<Tracer>(opt_.trace_capacity);
    o.tracer_->set_enabled_categories(opt_.categories);
  }
  if (metrics()) {
    o.metrics_ = std::make_unique<MetricsRegistry>();
    o.period_ = opt_.metrics_period_ns;
  }
  o.topo_wanted_ = topo_reporting();
  return o;
}

void Session::collect(JobObs obs, const std::string& label) {
  ++jobs_collected_;
  if (obs.tracer_) {
    const Tracer& t = *obs.tracer_;
    total_events_ += t.size();
    total_dropped_ += t.dropped();
    if (tracing()) {
      if (!trace_os_.is_open()) {
        trace_os_.open(trace_path(), std::ios::out | std::ios::trunc);
        if (!trace_os_) {
          std::cerr << "[obs] ERROR: cannot open trace output '"
                    << trace_path() << "'\n";
          ok_ = false;
        }
      }
      if (trace_os_) {
        if (trace_as_csv()) {
          if (!trace_header_done_) {
            trace_os_
                << "job,time_ns,category,event,subject,actor,detail,aux\n";
            trace_header_done_ = true;
          }
          for (const Tracer::Record& r : t) {
            trace_os_ << label << ',' << r.t << ',' << t.category_name(r.cat)
                      << ',' << t.event_name(r.ev) << ',' << r.subject << ','
                      << r.actor << ',' << r.detail << ',' << r.aux << '\n';
          }
          // Region map + drop accounting as comment footers, so offline
          // analysis (tools/ksrprof) can resolve sub-pages to region names.
          for (const RegionSpan& reg : obs.regions_) {
            trace_os_ << "# region job=" << label << " base=" << reg.base
                      << " bytes=" << reg.bytes << " name=" << reg.name
                      << '\n';
          }
          trace_os_ << "# job=" << label << " events=" << t.size()
                    << " dropped=" << t.dropped() << '\n';
        } else {
          if (!writer_) {
            writer_ = std::make_unique<ChromeTraceWriter>(trace_os_);
          }
          // Multi-leaf jobs carry per-cell (leaf, domain) so Perfetto
          // groups the cell tracks by leaf ring.
          if (obs.cells_.empty()) {
            writer_->add_process(t, label);
          } else {
            writer_->add_process(t, label, obs.cells_);
          }
        }
      }
    }
    if (reporting()) {
      if (!report_os_.is_open()) {
        report_os_.open(opt_.report, std::ios::out | std::ios::trunc);
        if (!report_os_) {
          std::cerr << "[obs] ERROR: cannot open report output '"
                    << opt_.report << "'\n";
          ok_ = false;
        }
      }
      if (report_os_) {
        const Analysis a = analyze(t, obs.regions_);
        report_os_ << "=== job " << label << " ===\n";
        write_report(report_os_, a);
        report_os_ << '\n';
      }
    }
  }
  if (topo_reporting() && obs.has_topo_) {
    if (!topo_os_.is_open()) {
      topo_os_.open(opt_.topo_report, std::ios::out | std::ios::trunc);
      if (!topo_os_) {
        std::cerr << "[obs] ERROR: cannot open topo report output '"
                  << opt_.topo_report << "'\n";
        ok_ = false;
      }
    }
    if (topo_os_) {
      topo_os_ << "=== job " << label << " ===\n";
      topo::write_report(topo_os_, obs.topo_);
      topo_os_ << '\n';
    }
    // The traffic heatmap rides in a sibling CSV: long format, ready for
    // pivoting, merged across jobs exactly like the metrics CSV.
    if (!obs.topo_.traffic.empty()) {
      if (!matrix_os_.is_open()) {
        matrix_os_.open(opt_.topo_report + ".matrix.csv",
                        std::ios::out | std::ios::trunc);
        if (!matrix_os_) {
          std::cerr << "[obs] ERROR: cannot open traffic matrix output '"
                    << opt_.topo_report << ".matrix.csv'\n";
          ok_ = false;
        }
      }
      if (matrix_os_) {
        if (!matrix_header_done_) {
          topo::write_matrix_csv_header(matrix_os_);
          matrix_header_done_ = true;
        }
        topo::write_matrix_csv(matrix_os_, obs.topo_, label);
      }
    }
  }
  if (obs.metrics_) {
    if (!metrics_os_.is_open()) {
      metrics_os_.open(opt_.metrics_csv, std::ios::out | std::ios::trunc);
      if (!metrics_os_) {
        std::cerr << "[obs] ERROR: cannot open metrics output '"
                  << opt_.metrics_csv << "'\n";
        ok_ = false;
      }
    }
    if (metrics_os_) {
      obs.metrics_->write_csv(metrics_os_, label, !metrics_header_done_);
      metrics_header_done_ = true;
    }
  }
}

void Session::close() {
  if (closed_) return;
  closed_ = true;
  if (writer_) {
    writer_->finish();
    writer_.reset();
  }
  // Flush-then-verify each output: an ofstream swallows short writes (full
  // disk, yanked mount) until the final flush, so the stream state after
  // close() is the only trustworthy signal the file actually holds what we
  // streamed into it.
  const auto finish = [this](std::ofstream& os, const std::string& path,
                             const char* what) -> bool {
    if (!os.is_open()) return false;
    os.close();
    if (!os) {
      std::cerr << "[obs] ERROR: short write to " << what << " output '"
                << path << "'\n";
      ok_ = false;
      return false;
    }
    return true;
  };
  if (finish(trace_os_, trace_path(), "trace")) {
    std::cerr << "[obs] trace: " << total_events_ << " events ("
              << total_dropped_ << " dropped) from " << jobs_collected_
              << " job(s) -> " << trace_path() << "\n";
  }
  if (finish(metrics_os_, opt_.metrics_csv, "metrics")) {
    std::cerr << "[obs] metrics -> " << opt_.metrics_csv << "\n";
  }
  if (finish(report_os_, opt_.report, "report")) {
    std::cerr << "[obs] report -> " << opt_.report << "\n";
  }
  if (finish(topo_os_, opt_.topo_report, "topo report")) {
    std::cerr << "[obs] topo -> " << opt_.topo_report << "\n";
  }
  if (finish(matrix_os_, opt_.topo_report + ".matrix.csv",
             "traffic matrix")) {
    std::cerr << "[obs] traffic matrix -> " << opt_.topo_report
              << ".matrix.csv\n";
  }
}

}  // namespace ksr::obs
