module Smap = Map.Make (String)

type t = string Smap.t

let empty = Smap.empty
let is_empty = Smap.is_empty
let of_list kvs = List.fold_left (fun m (k, v) -> Smap.add k v m) empty kvs
let to_list p = Smap.bindings p
let add = Smap.add
let remove = Smap.remove
let find k p = Smap.find_opt k p
let mem = Smap.mem
let cardinal = Smap.cardinal
let keys p = List.map fst (Smap.bindings p)
let equal = Smap.equal String.equal
let compare = Smap.compare String.compare

let intersect p q =
  Smap.filter
    (fun k v -> match Smap.find_opt k q with Some w -> String.equal v w | None -> false)
    p

let mismatch_cost p q =
  Smap.fold
    (fun k v acc ->
      match Smap.find_opt k q with
      | Some w when String.equal v w -> acc
      | Some _ | None -> acc + 1)
    p 0

let mismatch_free p q =
  Smap.for_all
    (fun k v -> match Smap.find_opt k q with Some w -> String.equal v w | None -> false)
    p

let symmetric_mismatch p q = mismatch_cost p q + mismatch_cost q p

let union_preferring_left p q = Smap.union (fun _k v _w -> Some v) p q

let fold = Smap.fold
let iter = Smap.iter
let filter = Smap.filter

let pp ppf p =
  let pp_kv ppf (k, v) = Format.fprintf ppf "%s=%S" k v in
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_kv) (to_list p)
