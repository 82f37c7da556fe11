/*
 * Stub declarations of the Gemmini intrinsics that generated C calls:
 * the @instr templates of crates/hwlibs/src/gemmini.exo and the
 * SCRATCHPAD/ACCUM allocation templates of GemminiLib::codegen_ctx.
 * There are no definitions; this header exists so that generated
 * Gemmini C can be type-checked with `cc -fsyntax-only` on any host.
 */
#ifndef EXO_GEMMINI_STUB_H
#define EXO_GEMMINI_STUB_H

#include <stdbool.h>
#include <stddef.h>
#include <stdint.h>

/* Set in a local address to select the accumulator. */
#define ACC_BASE ((uint64_t)1 << 31)

void *gemmini_spad_alloc(size_t bytes);
void gemmini_spad_free(void *buf);
void *gemmini_acc_alloc(size_t bytes);
void gemmini_acc_free(void *buf);

void gemmini_extended3_config_ld(size_t stride_bytes, float scale, bool shrunk, int id);
void gemmini_extended_config_st(size_t stride_bytes, int activation, float scale);

void gemmini_extended_mvin(const int8_t *dram, uint64_t spad, size_t cols, size_t rows);
void gemmini_extended_mvin2(const int8_t *dram, uint64_t spad, size_t cols, size_t rows);
void gemmini_extended_mvin3(const int32_t *dram, uint64_t acc, size_t cols, size_t rows);
void gemmini_extended_mvout(int8_t *dram, uint64_t acc, size_t cols, size_t rows);
void gemmini_extended_mvout_relu(int8_t *dram, uint64_t acc, size_t cols, size_t rows);
void gemmini_extended_mvout_acc(int32_t *dram, uint64_t acc, size_t cols, size_t rows);
void gemmini_extended_mvout_acc_relu(int32_t *dram, uint64_t acc, size_t cols, size_t rows);
void gemmini_zero(uint64_t acc, size_t cols, size_t rows);

void gemmini_extended_preload(uint64_t bd, uint64_t c, size_t bd_cols, size_t bd_rows,
                              size_t c_cols, size_t c_rows);
void gemmini_extended_compute_preloaded(uint64_t a, uint64_t bd, size_t a_cols, size_t a_rows,
                                        size_t bd_cols, size_t bd_rows);

#endif /* EXO_GEMMINI_STUB_H */
