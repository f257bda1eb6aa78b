/* OCaml <-> dlopen bridge for the native execution backend.
 *
 * The generated translation unit (Codegen_c.emit_exec) exports one
 * entry point with a flat ABI:
 *
 *   int taco_entry(const int64_t* iargs, const double* fargs,
 *                  void** aargs, void** esc, int64_t* esc_len,
 *                  int64_t mem_limit, int64_t deadline_ns);
 *
 * taco_nat_call marshals an OCaml call_spec record into that shape:
 *   - float arrays cross with no copy: an OCaml float array is a flat
 *     double buffer, so its value pointer IS the double*. The call
 *     performs no OCaml allocation before the copy-back below, so the
 *     GC cannot move the buffers while the kernel runs (any other
 *     domain asking for a stop-the-world collection blocks until this
 *     call returns — the documented cost of the zero-copy path);
 *   - int arrays are tagged words on the OCaml side and int32_t on the
 *     C side, so they are copied into temporary buffers on the way in
 *     and written back (output kinds only) on the way out;
 *   - arrays the kernel allocates come back through esc/esc_len and
 *     the first esc_len[i] elements are re-boxed as fresh OCaml arrays:
 *     the live prefix of a returned array, nothing for a workspace. The
 *     malloc'd originals are freed here.
 *
 * The call_spec record layout is fixed by lib/exec/native.ml — field
 * order there is field order here:
 *   0 cs_ints      int array      (int scalar params, in order)
 *   1 cs_floats    float array    (float scalar params, in order)
 *   2 cs_arrays    Obj.t array    (array params, in order)
 *   3 cs_kinds     int array      (0 = int input, 1 = float in-place,
 *                                  2 = int output: copy back)
 *   4 cs_esc_kinds int array      (0 = int escape, 1 = float escape)
 *   5 cs_mem_limit int64
 *   6 cs_deadline  int64
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <dlfcn.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

typedef int (*taco_entry_fn)(const int64_t *, const double *, void **, void **,
                             int64_t *, int64_t, int64_t);

CAMLprim value taco_nat_dlopen(value vpath)
{
  CAMLparam1(vpath);
  void *h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

CAMLprim value taco_nat_dlsym(value vhandle, value vname)
{
  CAMLparam2(vhandle, vname);
  void *h = (void *)Nativeint_val(vhandle);
  void *fn = h ? dlsym(h, String_val(vname)) : NULL;
  CAMLreturn(caml_copy_nativeint((intnat)fn));
}

CAMLprim value taco_nat_dlclose(value vhandle)
{
  CAMLparam1(vhandle);
  void *h = (void *)Nativeint_val(vhandle);
  if (h) dlclose(h);
  CAMLreturn(Val_unit);
}

static void *xmalloc(size_t n) { return malloc(n ? n : 1); }

CAMLprim value taco_nat_call(value vfn, value vspec)
{
  CAMLparam2(vfn, vspec);
  CAMLlocal3(vres, vescs, varr);

  taco_entry_fn fn = (taco_entry_fn)Nativeint_val(vfn);

  mlsize_t n_ints = Wosize_val(Field(vspec, 0));
  mlsize_t n_floats = Wosize_val(Field(vspec, 1));
  mlsize_t n_arr = Wosize_val(Field(vspec, 2));
  mlsize_t n_esc = Wosize_val(Field(vspec, 4));
  int64_t mem_limit = Int64_val(Field(vspec, 5));
  int64_t deadline = Int64_val(Field(vspec, 6));

  int64_t *iargs = xmalloc(sizeof(int64_t) * n_ints);
  double *fargs = xmalloc(sizeof(double) * n_floats);
  void **aargs = xmalloc(sizeof(void *) * n_arr);
  int32_t **icopies = xmalloc(sizeof(int32_t *) * n_arr);
  void **esc = xmalloc(sizeof(void *) * n_esc);
  int64_t *esc_len = xmalloc(sizeof(int64_t) * n_esc);
  if (!iargs || !fargs || !aargs || !icopies || !esc || !esc_len) {
    free(iargs); free(fargs); free(aargs); free(icopies); free(esc); free(esc_len);
    caml_failwith("taco_nat_call: out of memory");
  }
  memset(icopies, 0, sizeof(int32_t *) * n_arr);
  memset(esc, 0, sizeof(void *) * n_esc);
  memset(esc_len, 0, sizeof(int64_t) * n_esc);

  for (mlsize_t i = 0; i < n_ints; i++)
    iargs[i] = Long_val(Field(Field(vspec, 0), i));
  for (mlsize_t i = 0; i < n_floats; i++)
    fargs[i] = Double_flat_field(Field(vspec, 1), i);

  int oom = 0;
  for (mlsize_t i = 0; i < n_arr; i++) {
    long kind = Long_val(Field(Field(vspec, 3), i));
    value a = Field(Field(vspec, 2), i);
    if (kind == 1) {
      /* float array: the unboxed double buffer crosses directly. */
      aargs[i] = (void *)((double *)a);
    } else {
      mlsize_t len = Wosize_val(a);
      int32_t *buf = xmalloc(sizeof(int32_t) * len);
      if (!buf) { oom = 1; break; }
      for (mlsize_t j = 0; j < len; j++)
        buf[j] = (int32_t)Long_val(Field(a, j));
      icopies[i] = buf;
      aargs[i] = buf;
    }
  }

  int rc;
  if (oom) {
    rc = 1; /* maps to E_EXEC_MEM on the OCaml side */
  } else {
    rc = fn(iargs, fargs, aargs, esc, esc_len, mem_limit, deadline);
  }

  /* Copy mutated int output buffers back before any OCaml allocation
     can move their owning arrays. */
  if (rc == 0) {
    for (mlsize_t i = 0; i < n_arr; i++) {
      if (Long_val(Field(Field(vspec, 3), i)) == 2 && icopies[i]) {
        value a = Field(Field(vspec, 2), i);
        mlsize_t len = Wosize_val(a);
        for (mlsize_t j = 0; j < len; j++)
          Field(a, j) = Val_long((intnat)icopies[i][j]);
      }
    }
  }

  /* Re-box escapes. Allocation happens here, so every OCaml value is
     re-read through the registered roots vspec/vescs/varr. */
  if (rc == 0 && n_esc > 0) {
    vescs = caml_alloc(n_esc, 0);
    for (mlsize_t i = 0; i < n_esc; i++) {
      long kind = Long_val(Field(Field(vspec, 4), i));
      mlsize_t len = esc_len[i] > 0 ? (mlsize_t)esc_len[i] : 0;
      if (kind == 1) {
        varr = caml_alloc_float_array(len);
        if (len > 0) memcpy((double *)varr, esc[i], len * sizeof(double));
      } else {
        varr = caml_alloc(len, 0);
        /* Immediates need no write barrier: a plain store initializes
           the fresh block without caml_modify's per-element cost. */
        const int32_t *src = esc[i];
        for (mlsize_t j = 0; j < len; j++)
          Field(varr, j) = Val_long((intnat)src[j]);
      }
      Store_field(vescs, i, varr);
    }
  } else {
    vescs = Atom(0);
  }
  /* On success the kernel handed ownership of the escape buffers to
     us; on failure it already freed everything and esc[] is NULL. */
  for (mlsize_t i = 0; i < n_esc; i++) free(esc[i]);
  for (mlsize_t i = 0; i < n_arr; i++) free(icopies[i]);
  free(iargs); free(fargs); free(aargs); free(icopies); free(esc); free(esc_len);

  vres = caml_alloc_tuple(2);
  Store_field(vres, 0, Val_long(rc));
  Store_field(vres, 1, vescs);
  CAMLreturn(vres);
}
