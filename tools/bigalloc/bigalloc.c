/* Attribute a process's peak RSS: an LD_PRELOAD library that logs every
 * allocation of 64 KiB or more to stderr, one line each:
 *   bigalloc malloc 18000000        bigalloc realloc 3145728 (was 0x7f..)
 *   gcc -O2 -shared -fPIC -o bigalloc.so bigalloc.c -ldl
 *   LD_PRELOAD=$PWD/bigalloc.so BINARY ARGS... 2>&1 | grep ^bigalloc
 * Sizes are requests, not resident pages: an untouched allocation costs
 * no RSS. Linux/glibc only. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdio.h>
#include <unistd.h>

#define BIG (64 << 10)
static void *(*next_malloc)(size_t), *(*next_realloc)(void *, size_t);
static void *(*next_calloc)(size_t, size_t);
static int (*next_memalign)(void **, size_t, size_t);

static void note(const char *fn, size_t size, void *was) {
    char line[96];
    int n = was ? snprintf(line, sizeof line, "bigalloc %s %zu (was %p)\n", fn, size, was)
                : snprintf(line, sizeof line, "bigalloc %s %zu\n", fn, size);
    if (n > 0) (void)!write(2, line, (size_t)n); /* write(2): no allocation */
}

__attribute__((constructor)) static void init(void) {
    next_malloc = dlsym(RTLD_NEXT, "malloc");
    next_realloc = dlsym(RTLD_NEXT, "realloc");
    next_calloc = dlsym(RTLD_NEXT, "calloc");
    next_memalign = dlsym(RTLD_NEXT, "posix_memalign");
}

void *malloc(size_t size) {
    if (!next_malloc) init();
    if (size >= BIG) note("malloc", size, NULL);
    return next_malloc(size);
}

void *calloc(size_t n, size_t size) {
    static int resolving; /* dlsym may call calloc: it copes with NULL */
    if (!next_calloc) {
        if (resolving) return NULL;
        resolving = 1, init(), resolving = 0;
    }
    if (n * size >= BIG) note("calloc", n * size, NULL);
    return next_calloc(n, size);
}

void *realloc(void *p, size_t size) {
    if (!next_realloc) init();
    if (size >= BIG) note("realloc", size, p);
    return next_realloc(p, size);
}

int posix_memalign(void **p, size_t align, size_t size) {
    if (!next_memalign) init();
    if (size >= BIG) note("posix_memalign", size, NULL);
    return next_memalign(p, align, size);
}
