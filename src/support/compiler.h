// Compiler attributes shared by the simulators' hot loops, empty where the
// compiler does not know them.

#ifndef ISDL_SUPPORT_COMPILER_H
#define ISDL_SUPPORT_COMPILER_H

// Starts a hot function on a 64-byte boundary, so how its loops fall across
// cache lines and fetch blocks does not depend on how much code the linker
// placed before it.
#if defined(__GNUC__)
#define ISDL_HOT_ALIGN __attribute__((aligned(64)))
#else
#define ISDL_HOT_ALIGN
#endif

#endif  // ISDL_SUPPORT_COMPILER_H
