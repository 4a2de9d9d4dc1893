#include "smartdimm/buffer_device.h"

#include <bit>
#include <cstring>

#include "common/log.h"
#include "smartdimm/deflate_dsa.h"
#include "smartdimm/mmio_layout.h"

namespace sd::smartdimm {

BufferDevice::BufferDevice(EventQueue &events, const mem::AddressMap &map,
                           mem::BackingStore &store,
                           const SmartDimmConfig &config)
    : events_(events), map_(map), store_(store), config_(config),
      bank_table_(map.geometry()),
      translation_(config.translation_entries, config.cam_entries),
      scratchpad_(config.scratchpadPages()),
      config_memory_(config.config_memory_bytes, config.context_bytes)
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

bool
BufferDevice::injectFault(fault::Site site)
{
    return fault_plan_ && fault_plan_->armed(site) &&
           fault_plan_->shouldInject(site, fault_scope_);
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
        if (injectFault(fault::Site::kFreePagesLie)) {
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
        // count word — one 64-byte register read per batch.
        std::uint64_t words[8] = {};
        std::size_t n = 0;
        for (const auto &[dbuf_page, entry] : dests_) {
            if (n >= 7)
                break;
            words[1 + n++] = dbuf_page * kPageSize;
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
BufferDevice::registerTls(const std::uint8_t *data)
{
    const auto reg = TlsPageRegistration::unpack(data);
    SD_ASSERT(reg.message_len > 0, "TLS registration with empty record");

    // sbuf_page == dbuf_page marks a tag-only trailer page: the
    // record filled its last payload page exactly, so the tag spills
    // into a destination page with no matching source page.
    const bool tag_only = reg.sbuf_page == reg.dbuf_page;

    // Acquire every resource before mutating any map, so a rejection
    // (genuine exhaustion after a stale freePages read, or an injected
    // fault) unwinds to the pre-registration state.
    std::optional<std::uint32_t> scratch;
    if (!injectFault(fault::Site::kScratchpadExhaust))
        scratch = scratchpad_.allocate();
    if (!scratch) {
        rejectRegistration(reg.dbuf_page);
        return;
    }

    std::uint32_t slot_id = 0;
    if (!tag_only) {
        // Config Memory slot holds the shipped context (key material,
        // IV; H powers are derived inside the DSA model).
        std::optional<std::uint32_t> slot;
        if (!injectFault(fault::Site::kConfigMemExhaust))
            slot = config_memory_.allocate();
        if (!slot) {
            scratchpad_.release(*scratch);
            rejectRegistration(reg.dbuf_page);
            return;
        }
        slot_id = *slot;
        config_memory_.write(slot_id, 0, reg.key, sizeof(reg.key));
        config_memory_.write(slot_id, sizeof(reg.key), reg.iv,
                             sizeof(reg.iv));
    }

    // Shared per-message state (partial tag + H-power table).
    auto &state = message_states_[reg.message_id];
    const bool fresh_state = !state;
    if (!state)
        state = std::make_shared<TlsMessageState>(
            reg.key, [&] {
                crypto::GcmIv iv{};
                std::memcpy(iv.data(), reg.iv, iv.size());
                return iv;
            }(), reg.message_len, config_.dsa_line_latency,
            &dsa_stats_);

    auto job = std::make_shared<TlsDsaJob>(state, reg.page_index);

    Translation src_t;
    src_t.kind = MappingKind::kConfigMemory;
    src_t.offset = slot_id;
    src_t.dest_page = reg.dbuf_page;
    if (!tag_only && !translation_.insert(reg.sbuf_page, src_t)) {
        if (fresh_state)
            message_states_.erase(reg.message_id);
        config_memory_.release(slot_id);
        scratchpad_.release(*scratch);
        rejectRegistration(reg.dbuf_page);
        return;
    }

    Translation dst_t;
    dst_t.kind = MappingKind::kScratchpad;
    dst_t.offset = *scratch;
    if (!translation_.insert(reg.dbuf_page, dst_t)) {
        if (!tag_only) {
            translation_.erase(reg.sbuf_page);
            config_memory_.release(slot_id);
        }
        if (fresh_state)
            message_states_.erase(reg.message_id);
        scratchpad_.release(*scratch);
        rejectRegistration(reg.dbuf_page);
        return;
    }

    if (!tag_only) {
        sources_[reg.sbuf_page] =
            SourceEntry{job, reg.dbuf_page, slot_id};
        sbuf_message_[reg.sbuf_page] = reg.message_id;
    }
    dests_[reg.dbuf_page] =
        DestEntry{job, tag_only ? 0 : reg.sbuf_page, *scratch};
    message_pages_[reg.message_id].push_back(reg.dbuf_page);

    ++stats_.registrations;
}

void
BufferDevice::registerDeflate(const std::uint8_t *data)
{
    const auto reg = DeflatePageRegistration::unpack(data);

    std::optional<std::uint32_t> slot;
    if (!injectFault(fault::Site::kConfigMemExhaust))
        slot = config_memory_.allocate();
    if (!slot) {
        rejectRegistration(reg.dbuf_page);
        return;
    }
    std::optional<std::uint32_t> scratch;
    if (!injectFault(fault::Site::kScratchpadExhaust))
        scratch = scratchpad_.allocate();
    if (!scratch) {
        config_memory_.release(*slot);
        rejectRegistration(reg.dbuf_page);
        return;
    }

    Translation src_t;
    src_t.kind = MappingKind::kConfigMemory;
    src_t.offset = *slot;
    src_t.dest_page = reg.dbuf_page;
    if (!translation_.insert(reg.sbuf_page, src_t)) {
        scratchpad_.release(*scratch);
        config_memory_.release(*slot);
        rejectRegistration(reg.dbuf_page);
        return;
    }

    Translation dst_t;
    dst_t.kind = MappingKind::kScratchpad;
    dst_t.offset = *scratch;
    if (!translation_.insert(reg.dbuf_page, dst_t)) {
        translation_.erase(reg.sbuf_page);
        scratchpad_.release(*scratch);
        config_memory_.release(*slot);
        rejectRegistration(reg.dbuf_page);
        return;
    }

    auto job = std::make_shared<DeflateDsaJob>(
        reg.payload_bytes, deflate_config_, config_.dsa_line_latency,
        &dsa_stats_);
    sources_[reg.sbuf_page] = SourceEntry{job, reg.dbuf_page, *slot};
    dests_[reg.dbuf_page] = DestEntry{job, reg.sbuf_page, *scratch};

    ++stats_.registrations;
}

void
BufferDevice::handleMmioWrite(Addr addr, const std::uint8_t *data)
{
    ++stats_.mmio_writes;
    const Addr off = addr - config_.mmio_base;
    switch (static_cast<MmioReg>(off)) {
      case MmioReg::kRegister: {
        std::uint16_t opcode;
        std::memcpy(&opcode, data, sizeof(opcode));
        switch (static_cast<MmioOpcode>(opcode)) {
          case MmioOpcode::kRegisterTlsPage:
            registerTls(data);
            break;
          case MmioOpcode::kRegisterDeflatePage:
            registerDeflate(data);
            break;
          default:
            SD_WARN("unknown registration opcode %u", opcode);
        }
        break;
      }
      case MmioReg::kQueueDoorbell: {
        const auto db = QueueDoorbell::unpack(data);
        ++stats_.doorbell_rings;
        if (db.queue < kMaxDeviceQueues)
            ++queues_[db.queue].submitted;
        break;
      }
      case MmioReg::kQueueComplete: {
        const auto qc = QueueCompletion::unpack(data);
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
    auto it = dests_.find(dbuf_page);
    if (it == dests_.end())
        return;
    DestEntry &entry = it->second;
    std::uint8_t line_data[kCacheLineSize];
    // Visit only lines that became available since the last wakeup
    // (ascending order, matching the historical full scan). Most
    // wakeups stage exactly one line.
    std::uint64_t todo = entry.job->readyMask() & ~entry.staged;
    while (todo) {
        const unsigned line =
            static_cast<unsigned>(std::countr_zero(todo));
        todo &= todo - 1;
        if (!entry.job->resultLine(line, line_data))
            continue;
        entry.staged |= std::uint64_t{1} << line;
        scratchpad_.writeLine(entry.scratch_page, line, line_data);
        trace::tracer().pageEvent(dbuf_page, trace::Stage::kStage,
                                  events_.now(),
                                  dbuf_page * kPageSize +
                                      line * kCacheLineSize);
    }
}

void
BufferDevice::feedDsa(std::uint64_t sbuf_page, unsigned line,
                      const std::uint8_t *data)
{
    auto it = sources_.find(sbuf_page);
    SD_ASSERT(it != sources_.end(), "sbuf mapping without a job");
    SourceEntry &entry = it->second;

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
    const std::uint64_t dbuf_page = entry.dbuf_page;
    trace::tracer().pageEvent(sbuf_page, trace::Stage::kTransform,
                              events_.now(),
                              sbuf_page * kPageSize + line * kCacheLineSize);

    const Cycles busy = entry.job->processLine(line, data);
    const Tick ready_at =
        events_.now() + buffer_clock_.toTicks(
                            busy ? busy : config_.dsa_line_latency);
    events_.schedule(ready_at,
                     [this, dbuf_page] { materializeResults(dbuf_page); });

    // When a TLS record just completed, trailer/tag lines on *other*
    // destination pages of the same message become available too.
    auto msg_it = sbuf_message_.find(sbuf_page);
    if (msg_it != sbuf_message_.end()) {
        const std::uint64_t message_id = msg_it->second;
        auto pages_it = message_pages_.find(message_id);
        if (pages_it != message_pages_.end()) {
            for (std::uint64_t page : pages_it->second) {
                if (page == dbuf_page)
                    continue;
                events_.schedule(ready_at, [this, page] {
                    materializeResults(page);
                });
            }
        }
    }
    ++stats_.sbuf_reads;
}

void
BufferDevice::retirePage(std::uint64_t dbuf_page)
{
    auto it = dests_.find(dbuf_page);
    if (it == dests_.end())
        return;
    const std::uint64_t sbuf_page = it->second.sbuf_page;
    auto src = sources_.find(sbuf_page);
    if (src != sources_.end() && src->second.dbuf_page == dbuf_page) {
        config_memory_.release(src->second.config_slot);
        translation_.erase(sbuf_page);
        sources_.erase(src);
        sbuf_message_.erase(sbuf_page);
    }
    translation_.erase(dbuf_page);
    dests_.erase(it);

    // Lazily sweep finished TLS message state.
    for (auto ms = message_states_.begin(); ms != message_states_.end();) {
        if (ms->second->complete()) {
            message_pages_.erase(ms->first);
            ms = message_states_.erase(ms);
        } else {
            ++ms;
        }
    }
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
        feedDsa(page, line, data);
        return mem::ReadResponse::kOk;
    }

    // Destination page.
    auto dest = dests_.find(page);
    if (dest == dests_.end()) {
        // Mapping raced with retirement; treat as plain DRAM.
        store_.read(addr, data, kCacheLineSize);
        ++stats_.plain_reads;
        return mem::ReadResponse::kOk;
    }
    if (scratchpad_.lineComputed(dest->second.scratch_page, line)) {
        // S10: serve the staged result from the Scratchpad.
        scratchpad_.readLine(dest->second.scratch_page, line, data);
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

    auto dest = dests_.find(page);
    if (dest == dests_.end()) {
        store_.write(addr, data, kCacheLineSize);
        ++stats_.plain_writes;
        return;
    }

    if (!scratchpad_.linePending(dest->second.scratch_page, line)) {
        // The line drained earlier (e.g. a Force-Recycle raced with a
        // Self-Recycle): the destination behaves as regular memory.
        store_.write(addr, data, kCacheLineSize);
        ++stats_.plain_writes;
        return;
    }

    if (!scratchpad_.lineComputed(dest->second.scratch_page, line)) {
        // S7: DSA still computing — the write is ignored; the line
        // stays pending in the Scratchpad.
        ++stats_.dbuf_write_ignored;
        return;
    }

    // S8/S9: Self-Recycle — replace the burst with the staged result
    // on its way to DRAM and invalidate the Scratchpad line.
    std::uint8_t staged[kCacheLineSize];
    const bool page_freed =
        scratchpad_.drainLine(dest->second.scratch_page, line, staged);
    store_.write(addr, staged, kCacheLineSize);
    ++stats_.dbuf_recycles;
    trace::tracer().pageEvent(page, trace::Stage::kRecycle, events_.now(),
                              addr);
    if (page_freed)
        retirePage(page);
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
                 static_cast<double>(dsa_stats_.tls_busy_cycles));
    block.scalar("dsa.deflate_lines",
                 static_cast<double>(dsa_stats_.deflate_lines));
    block.scalar("dsa.deflate_pages",
                 static_cast<double>(dsa_stats_.deflate_pages));
    block.scalar("dsa.deflate_busy_cycles",
                 static_cast<double>(dsa_stats_.deflate_busy_cycles));
    block.scalar("dsa.deflate_output_bytes",
                 static_cast<double>(dsa_stats_.deflate_output_bytes));
    block.scalar("dsa.deflate_order_faults",
                 static_cast<double>(dsa_stats_.deflate_order_faults));
}

} // namespace sd::smartdimm
