#include <caml/mlvalues.h>
#include <caml/memory.h>

/* A copy of [template] allocated directly in the major heap. A pooled
   packet lives for the whole run, so it is born where it will live and
   no minor collection ever copies it there. [caml_alloc_shr] runs no
   collection (it can only request a major slice for the next poll), so
   [template] stays where it is until every field is initialised. */
value netcore_packet_copy_major(value template)
{
  CAMLparam1(template);
  CAMLlocal1(copy);
  mlsize_t size = Wosize_val(template);
  mlsize_t i;
  copy = caml_alloc_shr(size, Tag_val(template));
  for (i = 0; i < size; i++)
    caml_initialize(&Field(copy, i), Field(template, i));
  CAMLreturn(copy);
}
