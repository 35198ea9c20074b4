/**
 * @file
 * The cDSA application API.
 *
 * Section 2.2: "The new API consists primarily of 15 calls to handle
 * synchronous or asynchronous read/write operations, I/O
 * completions, and scatter/gather I/Os" with "an application-
 * controlled I/O completion mode" — polling or interrupts. This
 * header is that public surface, a thin facade over DsaClient
 * (constructed with DsaImpl::Cdsa). SQL Server's modification in the
 * paper amounts to calling these instead of Win32 file I/O.
 *
 * Thirteen of the fifteen calls are modelled:
 *   open, close,
 *   read, write                      (synchronous),
 *   readAsync, writeAsync            (asynchronous),
 *   readGather, writeScatter         (scatter/gather),
 *   poll, wait, cancel               (completions),
 *   volumeInfo, stats.
 * The completion-mode switch is not a call here: the paper's
 * poll-then-sleep behaviour is modelled where it acts, by
 * DsaConfig::poll_timeout in DsaClient::awaitCompletion. The paper
 * also names caching/prefetch hints for the storage server but leaves
 * them unevaluated, so they are left out here too.
 */

#ifndef V3SIM_DSA_CDSA_API_HH
#define V3SIM_DSA_CDSA_API_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dsa/dsa_client.hh"

namespace v3sim::dsa
{

/** One scatter/gather segment. */
struct CdsaSegment
{
    uint64_t offset = 0;
    uint64_t len = 0;
    sim::Addr buffer = sim::kNullAddr;
};

/** Completion handle for asynchronous cDSA I/O. The `done` flag is
 *  the application-visible completion flag the paper's server sets
 *  via RDMA; poll() inspects it without kernel involvement. */
class CdsaIo
{
  public:
    bool done() const { return done_; }
    bool ok() const { return ok_; }

  private:
    friend class CdsaApi;
    bool done_ = false;
    bool ok_ = false;
    sim::Completion<bool> completion_;
};

using CdsaIoHandle = std::shared_ptr<CdsaIo>;

/** Volume metadata returned by volumeInfo(). */
struct CdsaVolumeInfo
{
    uint64_t capacity_bytes = 0;
    uint32_t block_size = 8192;
    bool connected = false;
};

/** Aggregate statistics exposed to the application. */
struct CdsaStats
{
    uint64_t ios = 0;
    uint64_t retransmits = 0;
    uint64_t reconnects = 0;
    uint64_t polled_completions = 0;
    uint64_t interrupt_completions = 0;
};

/** The cDSA interface over one volume connection. */
class CdsaApi
{
  public:
    /** (1) open: connects the underlying DSA client. */
    static sim::Task<std::unique_ptr<CdsaApi>>
    open(osmodel::Node &node, vi::ViNic &nic, net::PortId server_port,
         DsaConfig config = {});

    /** (2) close: tears the connection down. */
    void close();

    /** (3) synchronous read. */
    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         sim::Addr buffer);

    /** (4) synchronous write. */
    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          sim::Addr buffer);

    /** (5) asynchronous read: returns immediately with a handle. */
    CdsaIoHandle readAsync(uint64_t offset, uint64_t len,
                           sim::Addr buffer);

    /** (6) asynchronous write. */
    CdsaIoHandle writeAsync(uint64_t offset, uint64_t len,
                            sim::Addr buffer);

    /** (7) gather read: several segments, completes when all do. */
    sim::Task<bool> readGather(const std::vector<CdsaSegment> &segs);

    /** (8) scatter write. */
    sim::Task<bool> writeScatter(const std::vector<CdsaSegment> &segs);

    /** (9) poll: non-blocking completion check (the polling mode). */
    bool poll(const CdsaIoHandle &handle) const
    {
        return handle && handle->done();
    }

    /** (10) wait: blocks the caller until the I/O completes. */
    sim::Task<bool> wait(CdsaIoHandle handle);

    /** (11) cancel: best-effort; a completed I/O stays completed.
     *  Returns true if the request had not completed yet (the
     *  caller must still not reuse the buffer until completion). */
    bool cancel(const CdsaIoHandle &handle) const
    {
        return handle && !handle->done();
    }

    /** (12) volume metadata. */
    CdsaVolumeInfo volumeInfo() const;

    /** (13) statistics snapshot. */
    CdsaStats stats() const;

    DsaClient &client() { return *client_; }

  private:
    explicit CdsaApi(std::unique_ptr<DsaClient> client)
        : client_(std::move(client))
    {}

    std::unique_ptr<DsaClient> client_;
};

} // namespace v3sim::dsa

#endif // V3SIM_DSA_CDSA_API_HH
