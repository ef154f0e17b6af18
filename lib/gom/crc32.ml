(* Table-driven CRC-32, reflected form, polynomial 0xEDB88320.  The
   register is a native int masked to 32 bits (ints are 63 bits wide),
   so the byte loop neither boxes nor calls Int32 primitives. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let mask = 0xFFFFFFFF

let sub ?(init = 0l) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  let c = ref ((Int32.to_int init land mask) lxor mask) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor mask)

let string ?init s = sub ?init s ~pos:0 ~len:(String.length s)

let hex_digits = "0123456789abcdef"

let to_hex c =
  let v = Int32.to_int c land mask in
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set b i hex_digits.[(v lsr (28 - (4 * i))) land 0xF]
  done;
  Bytes.unsafe_to_string b

let of_hex s =
  let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  if String.length s <> 8 || not (String.for_all is_hex s) then None
  else try Some (Int32.of_string ("0x" ^ s)) with Failure _ -> None
