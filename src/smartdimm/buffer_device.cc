#include "smartdimm/buffer_device.h"

#include <bit>
#include <cstring>

#include "common/log.h"
#include "smartdimm/deflate_dsa.h"
#include "smartdimm/mmio_layout.h"

namespace sd::smartdimm {

namespace {

/** @return @p entries' entry for @p slot, growing it on first use. */
template <typename Entry>
Entry &
slotEntry(std::vector<Entry> &entries, std::uint32_t slot)
{
    if (slot >= entries.size())
        entries.resize(slot + 1);
    return entries[slot];
}

} // namespace

BufferDevice::BufferDevice(EventQueue &events, const mem::AddressMap &map,
                           mem::BackingStore &store,
                           const SmartDimmConfig &config)
    : events_(events), map_(map), store_(store), config_(config),
      bank_table_(map.geometry()),
      translation_(kTranslationEntries, kCamEntries),
      scratchpad_(config.scratchpadPages()),
      config_memory_(kConfigMemoryBytes, kContextBytes)
{
}

void
BufferDevice::onCommand(const mem::DdrCommand &cmd)
{
    // RAS/PRE maintain the Bank Table. CAS commands are decoded *now*
    // (S1 of Fig. 6): the Addr Remap regenerates the physical address
    // from the Bank Table's active row and the CAS's BG/BA/Col, and
    // the result is latched for the data phase — the bank may be
    // re-activated to another row before the burst completes.
    if (cmd.type == mem::DdrCommandType::kReadCas ||
        cmd.type == mem::DdrCommandType::kWriteCas) {
        mem::DramCoord coord = cmd.coord;
        coord.row = bank_table_.activeRow(cmd.coord);
        const Addr remapped = map_.compose(coord);
        SD_ASSERT(remapped == cmd.addr,
                  "Addr Remap mismatch: 0x%llx != 0x%llx",
                  static_cast<unsigned long long>(remapped),
                  static_cast<unsigned long long>(cmd.addr));
        ++stats_.addr_remap_checks;
        return;
    }
    bank_table_.onCommand(cmd);
}

void
BufferDevice::rejectRegistration(std::uint64_t dbuf_page)
{
    // Graceful rejection: no mapping installs, so the registered pages
    // behave as plain DRAM. The host polls kFaultStatus and treats the
    // affected CompCpy as degraded instead of trusting a raw copy.
    ++stats_.rejected_registrations;
    trace::tracer().faultEvent(dbuf_page, events_.now(), dbuf_page * kPageSize);
}

void
BufferDevice::handleMmioRead(Addr addr, std::uint8_t *data)
{
    ++stats_.mmio_reads;
    std::memset(data, 0, kCacheLineSize);
    const Addr off = addr - config_.mmio_base;
    switch (static_cast<MmioReg>(off)) {
      case MmioReg::kFreePages: {
        std::uint64_t free = scratchpad_.freePages();
        if (fault::fires(fault_plan_, fault::Site::kFreePagesLie,
                         fault_scope_)) {
            // Lie low: claiming exhaustion drives the software down
            // Alg. 1's Force-Recycle path, which a fault-free run of a
            // small workload would rarely exercise.
            free = 0;
            ++stats_.freepages_lies;
            trace::tracer().faultEvent(addr / kPageSize, events_.now(), addr);
        }
        std::memcpy(data, &free, sizeof(free));
        break;
      }
      case MmioReg::kFaultStatus: {
        std::uint64_t words[8] = {};
        words[0] = stats_.rejected_registrations;
        words[1] = stats_.freepages_lies;
        std::memcpy(data, words, sizeof(words));
        break;
      }
      case MmioReg::kQueueStatus: {
        // One 64-byte read snapshots every tracked queue: word 0 is
        // the queue count, then one word per queue packing
        // submitted (high 32) | completed (low 32). Poll-timeout
        // recovery diffs `completed` against host-side records to
        // detect dropped completions.
        std::uint64_t words[8] = {};
        words[0] = kMaxDeviceQueues;
        for (std::size_t q = 0; q < kMaxDeviceQueues; ++q)
            words[1 + q] = (std::uint64_t{queues_[q].submitted} << 32) |
                           queues_[q].completed;
        std::memcpy(data, words, sizeof(words));
        break;
      }
      case MmioReg::kPendingList: {
        // Up to 7 pending destination-page physical addresses after a
        // count word, in Scratchpad page order — one 64-byte register
        // read per batch. A page a later registration re-mapped to
        // another Scratchpad page is listed once, at its live page.
        std::uint64_t words[8] = {};
        std::size_t n = 0;
        for (std::uint32_t slot = 0; slot < dests_.size() && n < 7;
             ++slot) {
            const std::uint64_t page = dests_[slot].page;
            const auto t = translation_.find(page);
            if (t && t->kind == MappingKind::kScratchpad && t->offset == slot)
                words[1 + n++] = page * kPageSize;
        }
        words[0] = n;
        std::memcpy(data, words, sizeof(words));
        break;
      }
      default:
        break; // reserved registers read as zero
    }
}

void
BufferDevice::registerPage(const PageRegistration &reg)
{
    const bool tls = reg.opcode == MmioOpcode::kRegisterTlsPage;
    if (!tls && reg.opcode != MmioOpcode::kRegisterDeflatePage) {
        SD_WARN("unknown registration opcode %u",
                static_cast<unsigned>(reg.opcode));
        return;
    }
    SD_ASSERT(reg.message_len > 0, "registration with an empty payload");

    // sbuf_page == dbuf_page marks a tag-only trailer page: the
    // record filled its last payload page exactly, so the tag spills
    // into a destination page with no matching source page.
    const bool has_source = reg.sbuf_page != reg.dbuf_page;
    retireStale(reg.dbuf_page);
    if (has_source)
        retireStale(reg.sbuf_page);

    // Take every resource before installing any state, so a rejection
    // (genuine exhaustion after a stale freePages read, or an injected
    // fault) hands back exactly what this registration took.
    std::optional<std::uint32_t> scratch;
    std::optional<std::uint32_t> slot;
    bool source_mapped = false;
    const bool held = [&] {
        if (!fault::fires(fault_plan_, fault::Site::kScratchpadExhaust,
                          fault_scope_))
            scratch = scratchpad_.allocate();
        if (!scratch)
            return false;
        if (has_source) {
            if (!fault::fires(fault_plan_, fault::Site::kConfigMemExhaust,
                              fault_scope_))
                slot = config_memory_.allocate();
            if (!slot)
                return false;
            Translation src_t;
            src_t.kind = MappingKind::kConfigMemory;
            src_t.offset = *slot;
            src_t.dest_page = reg.dbuf_page;
            source_mapped = translation_.insert(reg.sbuf_page, src_t);
            if (!source_mapped)
                return false;
        }
        Translation dst_t;
        dst_t.kind = MappingKind::kScratchpad;
        dst_t.offset = *scratch;
        return translation_.insert(reg.dbuf_page, dst_t);
    }();
    if (!held) {
        if (source_mapped)
            translation_.erase(reg.sbuf_page);
        if (slot)
            config_memory_.release(*slot);
        if (scratch)
            scratchpad_.release(*scratch);
        rejectRegistration(reg.dbuf_page);
        return;
    }

    // Only the job, and the context it ships, depend on the ULP.
    std::shared_ptr<DsaJob> job;
    TlsMessageState *record = nullptr;
    if (tls) {
        // Shared per-record state (partial tag + H-power table).
        std::shared_ptr<TlsMessageState> &message =
            messages_[reg.message_id];
        if (!message) {
            crypto::GcmIv iv{};
            std::memcpy(iv.data(), reg.iv, iv.size());
            message = std::make_shared<TlsMessageState>(
                reg.key, iv, reg.message_len, &dsa_stats_);
        }
        message->dest_pages.push_back(reg.dbuf_page);
        ++message->live_pages;
        record = message.get();
        job = std::make_shared<TlsDsaJob>(message, reg.page_index);
        if (has_source) {
            // The slot holds the shipped context (key material, IV; H
            // powers are derived inside the DSA model).
            config_memory_.write(*slot, 0, reg.key, sizeof(reg.key));
            config_memory_.write(*slot, sizeof(reg.key), reg.iv,
                                 sizeof(reg.iv));
        }
    } else {
        job = std::make_shared<DeflateDsaJob>(reg.message_len, &dsa_stats_);
    }

    if (has_source)
        slotEntry(sources_, *slot) = SourceEntry{
            job, 0,
            tls ? std::optional<std::uint64_t>(reg.message_id)
                : std::nullopt};
    slotEntry(dests_, *scratch) =
        DestEntry{std::move(job), reg.dbuf_page, reg.sbuf_page, record};
    ++stats_.registrations;
}

void
BufferDevice::handleMmioWrite(Addr addr, const std::uint8_t *data)
{
    ++stats_.mmio_writes;
    const Addr off = addr - config_.mmio_base;
    switch (static_cast<MmioReg>(off)) {
      case MmioReg::kRegister:
        registerPage(unpackBurst<PageRegistration>(data));
        break;
      case MmioReg::kQueueDoorbell: {
        const auto db = unpackBurst<QueueDoorbell>(data);
        ++stats_.doorbell_rings;
        if (db.queue < kMaxDeviceQueues)
            ++queues_[db.queue].submitted;
        break;
      }
      case MmioReg::kQueueComplete: {
        const auto qc = unpackBurst<QueueCompletion>(data);
        ++stats_.completion_acks;
        if (qc.queue < kMaxDeviceQueues)
            ++queues_[qc.queue].completed;
        break;
      }
      default:
        break; // reserved registers ignore writes
    }
}

void
BufferDevice::materializeResults(std::uint64_t dbuf_page)
{
    // Wake-ups are keyed by page: one that outlives its registration
    // stages for whatever registration holds the page now, if any.
    const auto t = translation_.find(dbuf_page);
    if (!t || t->kind != MappingKind::kScratchpad)
        return;
    DsaJob &job = *dests_[t->offset].job;
    // Stage only lines that became ready since the last wakeup, in
    // ascending order. Most wakeups stage exactly one line.
    std::uint64_t todo =
        job.readyMask() & ~scratchpad_.computedLines(t->offset);
    const std::uint8_t *result = job.resultPage();
    while (todo) {
        const unsigned line =
            static_cast<unsigned>(std::countr_zero(todo));
        todo &= todo - 1;
        scratchpad_.writeLine(t->offset, line,
                              result + line * kCacheLineSize);
        trace::tracer().pageEvent(dbuf_page, trace::Stage::kStage,
                                  events_.now(),
                                  dbuf_page * kPageSize +
                                      line * kCacheLineSize);
    }
}

void
BufferDevice::feedDsa(const Translation &sbuf, std::uint64_t sbuf_page,
                      unsigned line, const std::uint8_t *data)
{
    SourceEntry &entry = sources_[sbuf.offset];

    // An ALERT_N retry re-issues the rdCAS, so the tap must be
    // idempotent: a line already handed to the DSA is served from DRAM
    // without feeding it again (the streaming ULPs consume each line
    // exactly once).
    const std::uint64_t line_bit = 1ULL << line;
    if (entry.fed_lines & line_bit)
        return;
    entry.fed_lines |= line_bit;

    // The DSA transform is functionally immediate; its latency is
    // modelled by deferring the Scratchpad materialisation, so a too-
    // early rdCAS/wrCAS of the destination line sees S13/S7.
    const std::uint64_t dbuf_page = sbuf.dest_page;
    trace::tracer().pageEvent(sbuf_page, trace::Stage::kTransform,
                              events_.now(),
                              sbuf_page * kPageSize + line * kCacheLineSize);

    entry.job->processLine(line, data);

    // When a TLS record just completed, trailer/tag lines on *other*
    // destination pages of the same message become available too, so
    // the one staging event also wakes the pages the record lists now.
    // It holds the record and that count: the retire sweep may drop
    // the record, and later registrations may add pages, before it runs.
    std::shared_ptr<const TlsMessageState> message;
    std::size_t pages = 0;
    if (entry.message_id) {
        const auto msg = messages_.find(*entry.message_id);
        if (msg != messages_.end()) {
            message = msg->second;
            pages = message->dest_pages.size();
        }
    }
    auto stage = [this, dbuf_page, message = std::move(message), pages] {
        materializeResults(dbuf_page);
        for (std::size_t i = 0; i < pages; ++i) {
            const std::uint64_t page = message->dest_pages[i];
            if (page != dbuf_page)
                materializeResults(page);
        }
    };
    static_assert(sizeof(stage) <= UniqueFunction::kInlineBytes,
                  "the staging event allocates nothing");
    events_.schedule(events_.now() + buffer_clock_.toTicks(kDsaLineLatency),
                     std::move(stage));
    ++stats_.sbuf_reads;
}

void
BufferDevice::retirePage(std::uint32_t scratch_page)
{
    DestEntry &dest = dests_[scratch_page];
    if (dest.message)
        --dest.message->live_pages;
    // The source mapping goes too, unless its sbuf page was registered
    // again, to another destination, before this one drained.
    const auto src = translation_.find(dest.sbuf_page);
    if (src && src->kind == MappingKind::kConfigMemory &&
        src->dest_page == dest.page) {
        config_memory_.release(src->offset);
        translation_.erase(dest.sbuf_page);
        sources_[src->offset] = {};
    }
    translation_.erase(dest.page);
    dest = {};

    // Lazily sweep finished TLS records, and records whose pages all
    // retired before the record finished (a re-registered destination).
    std::erase_if(messages_, [](const auto &message) {
        return message.second->complete() ||
               message.second->live_pages == 0;
    });
}

void
BufferDevice::retireStale(std::uint64_t page)
{
    // The host registered the page again before its old registration
    // drained: the new registration owns the page, so what the old
    // mapping holds goes back now. A destination's staged lines can
    // never drain; a source's old job can never be fed again, while
    // its old destination still drains what it staged.
    const auto t = translation_.find(page);
    if (!t)
        return;
    if (t->kind == MappingKind::kScratchpad) {
        scratchpad_.release(t->offset);
        retirePage(t->offset);
        return;
    }
    config_memory_.release(t->offset);
    sources_[t->offset] = {};
    translation_.erase(page);
}

mem::ReadResponse
BufferDevice::onRead(const mem::DdrCommand &cmd, std::uint8_t *data)
{
    // The physical address was regenerated and verified at CAS-decode
    // time (onCommand); the data phase uses the latched value.
    const Addr addr = cmd.addr;

    // S2/S3: config-space CAS?
    if (isMmio(addr)) {
        handleMmioRead(addr, data);
        return mem::ReadResponse::kOk;
    }

    const std::uint64_t page = addr / kPageSize;
    const unsigned line =
        static_cast<unsigned>((addr % kPageSize) / kCacheLineSize);
    const auto translation = translation_.lookup(page);

    if (!translation) {
        // S4/S5: non-acceleration range — plain DIMM behaviour.
        store_.read(addr, data, kCacheLineSize);
        ++stats_.plain_reads;
        return mem::ReadResponse::kOk;
    }

    if (translation->kind == MappingKind::kConfigMemory) {
        // S6: sbuf read. Host receives DRAM data unchanged; the tap
        // feeds the DSA.
        store_.read(addr, data, kCacheLineSize);
        feedDsa(*translation, page, line, data);
        return mem::ReadResponse::kOk;
    }

    // Destination page.
    if (scratchpad_.lineComputed(translation->offset, line)) {
        // S10: serve the staged result from the Scratchpad.
        scratchpad_.readLine(translation->offset, line, data);
        ++stats_.dbuf_scratch_reads;
        return mem::ReadResponse::kOk;
    }
    // S13: computation pending — ALERT_N retry.
    ++stats_.alert_n;
    trace::tracer().pageEvent(page, trace::Stage::kAlert, events_.now(), addr);
    return mem::ReadResponse::kAlertN;
}

void
BufferDevice::onWrite(const mem::DdrCommand &cmd, const std::uint8_t *data)
{
    const Addr addr = cmd.addr;

    if (isMmio(addr)) {
        handleMmioWrite(addr, data);
        return;
    }

    const std::uint64_t page = addr / kPageSize;
    const unsigned line =
        static_cast<unsigned>((addr % kPageSize) / kCacheLineSize);
    const auto translation = translation_.lookup(page);

    if (!translation || translation->kind == MappingKind::kConfigMemory) {
        // Plain write — includes writes to registered *source* pages
        // (the application refilling a buffer).
        store_.write(addr, data, kCacheLineSize);
        ++stats_.plain_writes;
        return;
    }

    const std::uint32_t scratch_page = translation->offset;
    if (!scratchpad_.linePending(scratch_page, line)) {
        // The line drained earlier (e.g. a Force-Recycle raced with a
        // Self-Recycle): the destination behaves as regular memory.
        store_.write(addr, data, kCacheLineSize);
        ++stats_.plain_writes;
        return;
    }

    if (!scratchpad_.lineComputed(scratch_page, line)) {
        // S7: DSA still computing — the write is ignored; the line
        // stays pending in the Scratchpad.
        ++stats_.dbuf_write_ignored;
        return;
    }

    // S8/S9: Self-Recycle — replace the burst with the staged result
    // on its way to DRAM and invalidate the Scratchpad line.
    std::uint8_t staged[kCacheLineSize];
    const bool page_freed = scratchpad_.drainLine(scratch_page, line, staged);
    store_.write(addr, staged, kCacheLineSize);
    ++stats_.dbuf_recycles;
    trace::tracer().pageEvent(page, trace::Stage::kRecycle, events_.now(),
                              addr);
    if (page_freed)
        retirePage(scratch_page);
}

void
BufferDevice::reportStats(trace::StatsBlock &block) const
{
    block.scalar("plain_reads", static_cast<double>(stats_.plain_reads));
    block.scalar("plain_writes",
                 static_cast<double>(stats_.plain_writes));
    block.scalar("mmio_reads", static_cast<double>(stats_.mmio_reads));
    block.scalar("mmio_writes", static_cast<double>(stats_.mmio_writes));
    block.scalar("sbuf_reads", static_cast<double>(stats_.sbuf_reads));
    block.scalar("dbuf_recycles",
                 static_cast<double>(stats_.dbuf_recycles));
    block.scalar("dbuf_write_ignored",
                 static_cast<double>(stats_.dbuf_write_ignored));
    block.scalar("dbuf_scratch_reads",
                 static_cast<double>(stats_.dbuf_scratch_reads));
    block.scalar("alert_n", static_cast<double>(stats_.alert_n));
    block.scalar("registrations",
                 static_cast<double>(stats_.registrations));
    block.scalar("rejected_registrations",
                 static_cast<double>(stats_.rejected_registrations));
    block.scalar("freepages_lies",
                 static_cast<double>(stats_.freepages_lies));
    block.scalar("doorbell_rings",
                 static_cast<double>(stats_.doorbell_rings));
    block.scalar("completion_acks",
                 static_cast<double>(stats_.completion_acks));

    const ScratchpadStats &sp = scratchpad_.stats();
    block.scalar("scratchpad.allocs", static_cast<double>(sp.allocs));
    block.scalar("scratchpad.self_recycles",
                 static_cast<double>(sp.self_recycles));
    block.scalar("scratchpad.force_recycles",
                 static_cast<double>(sp.force_recycles));
    block.scalar("scratchpad.peak_pages",
                 static_cast<double>(sp.peak_pages));
    block.scalar("scratchpad.live_pages",
                 static_cast<double>(scratchpad_.livePages()));

    block.scalar("dsa.tls_lines",
                 static_cast<double>(dsa_stats_.tls_lines));
    block.scalar("dsa.tls_messages",
                 static_cast<double>(dsa_stats_.tls_messages));
    block.scalar("dsa.tls_busy_cycles",
                 static_cast<double>(dsa_stats_.tls_lines *
                                     kDsaLineLatency));
    block.scalar("dsa.deflate_lines",
                 static_cast<double>(dsa_stats_.deflate_lines));
    block.scalar("dsa.deflate_pages",
                 static_cast<double>(dsa_stats_.deflate_pages));
    block.scalar("dsa.deflate_busy_cycles",
                 static_cast<double>(dsa_stats_.deflate_lines *
                                     kDsaLineLatency));
    block.scalar("dsa.deflate_output_bytes",
                 static_cast<double>(dsa_stats_.deflate_output_bytes));
    block.scalar("dsa.deflate_order_faults",
                 static_cast<double>(dsa_stats_.deflate_order_faults));
}

} // namespace sd::smartdimm
