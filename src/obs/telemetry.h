#ifndef RSAFE_OBS_TELEMETRY_H_
#define RSAFE_OBS_TELEMETRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

/**
 * @file
 * The live telemetry endpoint: a deliberately minimal blocking HTTP/1.0
 * server that makes the health plane observable *while the fleet runs*.
 *
 * One accept thread, one request per connection, three routes:
 *
 *   GET /metrics  -> Prometheus text exposition (MetricsExporter)
 *   GET /healthz  -> per-tenant health states as JSON (HealthMonitor)
 *   GET /flight   -> the latest flight-recorder dump (wire bytes)
 *
 * Responses come from provider callbacks so the server owns no pipeline
 * state; it binds 127.0.0.1 only (this is an operator loopback port,
 * not a service); port 0 picks an ephemeral port, published both via
 * port() and a `telemetry.port` file in the snapshot directory so a
 * smoke test can find it. TelemetryOptions::enabled = false keeps
 * start() from binding at all. For CI environments without a usable
 * loopback, stop() writes file snapshots of all three routes into the
 * snapshot directory — the endpoint's offline twin.
 */

namespace rsafe::obs {

/** Telemetry endpoint configuration. */
struct TelemetryOptions {
    /** Master switch; default keeps every existing run unchanged. */
    bool enabled = false;

    /** TCP port on 127.0.0.1 (0 = ephemeral, see port()). */
    std::uint16_t port = 0;

    /**
     * When non-empty: `telemetry.port` is written here on start, and
     * stop() snapshots metrics.prom / healthz.json / flight.bin here.
     */
    std::string snapshot_dir;
};

/** The route content providers (all must be thread-safe). */
struct TelemetryProviders {
    std::function<std::string()> metrics;              ///< /metrics
    std::function<std::string()> healthz;              ///< /healthz
    std::function<std::vector<std::uint8_t>()> flight; ///< /flight
};

/** The single-thread blocking HTTP/1.0 server. */
class TelemetryServer {
  public:
    TelemetryServer(TelemetryOptions options, TelemetryProviders providers);
    ~TelemetryServer();

    TelemetryServer(const TelemetryServer&) = delete;
    TelemetryServer& operator=(const TelemetryServer&) = delete;

    /**
     * Bind, listen and spawn the accept thread. Returns false (and
     * stays inert) when disabled or when the bind fails — a failed
     * endpoint must never fail the run.
     */
    bool start();

    /** @return whether the accept thread is serving. */
    bool running() const { return running_; }

    /** @return the bound port (the real one when options.port was 0). */
    std::uint16_t port() const { return port_; }

    /**
     * Close the listener, join the accept thread, and write the file
     * snapshots when a snapshot directory is configured. Idempotent.
     */
    void stop();

  private:
    void serve_loop();
    void handle_connection(int fd);

    TelemetryOptions options_;
    TelemetryProviders providers_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    bool running_ = false;
    bool snapshots_written_ = false;
    std::thread thread_;
};

}  // namespace rsafe::obs

#endif  // RSAFE_OBS_TELEMETRY_H_
