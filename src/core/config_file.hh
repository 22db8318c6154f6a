/**
 * @file
 * The machine schema: one table (config_file.cc) lists every
 * MachineConfig field once — its `section.field` key, its width, and
 * whether it is a *capture* field (cache, bus, memory and predictor
 * geometry: the warmed state a live-point store holds) or a *timing*
 * field (`core.*`). The config parser, the store's machine metadata, the
 * capture key (LivePointStore::configHash) and the campaign fingerprint
 * all walk that table.
 *
 * Configuration text is `key = value` lines (with `#` comments) that
 * override fields of a MachineConfig, so experiments can be described in
 * files and swept from the command line without recompiling. Unknown
 * keys are fatal (typo safety).
 *
 * Keys (all integers unless noted):
 *   il1.size_bytes il1.assoc il1.line_bytes il1.hit_latency
 *   dl1.*  l2.*                      (same fields as il1)
 *   l1bus.width_bytes l1bus.cpu_cycles_per_bus_cycle
 *   l2bus.width_bytes l2bus.cpu_cycles_per_bus_cycle
 *   mem.latency
 *   bp.pht_entries bp.history_bits bp.btb_entries bp.ras_entries
 *   core.fetch_width core.dispatch_width core.issue_width
 *   core.retire_width core.rob_size core.iq_size core.lsq_size
 *   core.num_fus core.frontend_delay core.min_mispredict_penalty
 *   core.max_unresolved_branches core.fetch_buffer_size
 *   core.int_alu_lat core.int_mul_lat core.int_div_lat
 *   core.fp_add_lat core.fp_mul_lat core.fp_div_lat
 *   core.forward_latency
 *   core.store_forwarding            (0 or 1)
 */

#ifndef RSR_CORE_CONFIG_FILE_HH
#define RSR_CORE_CONFIG_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hh"

namespace rsr::core
{

/** @p m's schema bytes: each field little-endian at its width, in table
 *  order — every field, or only the capture fields. */
std::vector<std::uint8_t> machineBytes(const MachineConfig &m,
                                       bool capture_only = false);

/** Inverse of machineBytes() over every field. Throws CorruptInputError
 *  when @p bytes is not exactly one schema long. */
MachineConfig machineFromBytes(const std::vector<std::uint8_t> &bytes);

/** Apply a single `key`/`value` override to @p config. Throws UserError
 *  naming the key on an unknown key, a malformed value, or a value the
 *  model cannot run: below the field's lowest legal value (0 for any
 *  core width or size), too large for the field (above 1 for a flag),
 *  or not a power of two where the field requires one. */
void applyMachineOption(MachineConfig &config, const std::string &key,
                        const std::string &value);

/** Apply one `key=value` override (a `--set` flag or a serve request
 *  override) to @p config. Fatal if there is no '='. */
void applyMachineSetting(MachineConfig &config,
                         const std::string &key_value);

/** Check the cross-field rules of a fully resolved machine: each
 *  cache's set count, size_bytes / (assoc x line_bytes), must be a whole
 *  power of two. Throws UserError naming the cache's size_bytes, assoc
 *  and line_bytes keys otherwise. */
void checkMachine(const MachineConfig &m);

/** The built-in base machine named @p kind: `scaled` or `paper`. */
MachineConfig baseMachine(const std::string &kind);

/** Parse `key = value` lines from @p text over @p base. */
MachineConfig parseMachineConfig(const std::string &text,
                                 MachineConfig base);

/** Load a configuration file over @p base. Fatal if unreadable. */
MachineConfig loadMachineConfig(const std::string &path,
                                MachineConfig base);

} // namespace rsr::core

#endif // RSR_CORE_CONFIG_FILE_HH
